(** A CHERIoT-flavoured RV32E instruction subset and a symbolic assembler.

    This is not a full RISC-V implementation: it is the subset needed to
    express the privileged switcher (§3.1.2) and small test programs, so
    that the switcher is genuinely assembly whose instruction count and
    executed cycle count are measurable artifacts.

    Registers are merged integer/capability registers, 16 of them (RV32E).
    Register 0 always reads as the NULL capability; integers are
    represented as NULL-derived untagged capabilities whose cursor is the
    value, as in the CHERIoT merged register file. *)

type reg = int
(** 0..15.  Conventional names below. *)

val zero : reg

(** c1: return sentry *)
val ra : reg

(** c2: stack capability *)
val csp : reg

(** c3: globals capability *)
val cgp : reg

val ct0 : reg
val ct1 : reg

(** c6: sealed export capability on compartment calls *)
val ct2 : reg

val ca0 : reg
val ca1 : reg
val ca2 : reg
val ca3 : reg
val ca4 : reg
val ca5 : reg
val cs0 : reg
val cs1 : reg
val ct3 : reg

(** Special capability registers (CSpecialRW). *)
val mtdc : int
(** Per-thread trusted stack capability; switcher-only (§3.1.2). *)

val mscratchc : int
(** Switcher scratch: holds the export-table unsealing key. *)

val mepcc : int
(** Trapping PCC, written by the trap path. *)

type instr =
  | Li of reg * int
  | Mv of reg * reg
  | Addi of reg * reg * int
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | Andi of reg * reg * int
  | Beq of reg * reg * string
  | Bne of reg * reg * string
  | Bltu of reg * reg * string
  | Bgeu of reg * reg * string
  | J of string
  | Lw of reg * int * reg  (** [Lw (rd, imm, rs)]: rd <- word[rs.cursor+imm] *)
  | Sw of reg * int * reg  (** [Sw (rs2, imm, rs1)]: word[rs1.cursor+imm] <- rs2 *)
  | Clc of reg * int * reg  (** capability load *)
  | Csc of reg * int * reg  (** capability store *)
  | Cincaddr of reg * reg * reg
  | Cincaddrimm of reg * reg * int
  | Csetaddr of reg * reg * reg
  | Csetbounds of reg * reg * reg
  | Csetboundsimm of reg * reg * int
  | Candperm of reg * reg * int  (** immediate permission mask *)
  | Cgetaddr of reg * reg
  | Cgetbase of reg * reg
  | Cgetlen of reg * reg
  | Cgettag of reg * reg
  | Cgettype of reg * reg
  | Cgetperm of reg * reg
  | Cseal of reg * reg * reg
  | Cunseal of reg * reg * reg
  | Csealentry of reg * reg * Capability.Otype.sentry
      (** seal an executable capability as a sentry of the given kind *)
  | Auipcc of reg * string
      (** rd <- PCC with its cursor at the label (PCC-relative addressing) *)
  | Cjalr of reg * reg  (** [Cjalr (rd, rs)]: rd <- return sentry; pc <- rs *)
  | Cjal of reg * string
  | Cspecialrw of reg * int * reg  (** rd <- special; special <- rs (if rs<>0) *)
  | Ccleartag of reg * reg
  | Trapif of string  (** pseudo: trap with a software-defined cause *)
  | Halt  (** stop the interpreter (test programs only) *)

type item = I of instr | L of string
(** Assembler input: instructions and label definitions. *)

type program

val assemble : name:string -> item list -> program
(** Resolve labels and validate operands.  Raises [Invalid_argument] on
    duplicate or undefined labels, on a register operand outside 0..15
    and on a [Cspecialrw] index outside 0..2.  [program] is abstract, so
    every program the interpreter runs has passed these checks. *)

val name : program -> string
val length : program -> int
(** Number of instructions — the paper's "~355 instructions" metric. *)

val code_bytes : program -> int
(** [4 * length]. *)

val fetch : program -> int -> instr option
(** Instruction at word index. *)

val instr_at : program -> int -> instr
(** Like {!fetch} but for callers that have already bounds-checked the
    index (the interpreter's fetch path); no option allocation.  Raises
    [Invalid_argument] on an out-of-range index. *)

val label_index : program -> string -> int
(** Word index of a label. *)

val pp_instr : instr Fmt.t
val pp_program : program Fmt.t
