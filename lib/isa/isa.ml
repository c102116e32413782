type reg = int

let zero = 0
let ra = 1
let csp = 2
let cgp = 3
let ct0 = 4
let ct1 = 5
let ct2 = 6
let ca0 = 7
let ca1 = 8
let ca2 = 9
let ca3 = 10
let ca4 = 11
let ca5 = 12
let cs0 = 13
let cs1 = 14
let ct3 = 15
let mtdc = 0
let mscratchc = 1

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
  | Lw of reg * int * reg
  | Sw of reg * int * reg
  | Clc of reg * int * reg
  | Csc of reg * int * reg
  | Cincaddr of reg * reg * reg
  | Cincaddrimm of reg * reg * int
  | Csetaddr of reg * reg * reg
  | Csetbounds of reg * reg * reg
  | Csetboundsimm of reg * reg * int
  | Candperm of reg * reg * int
  | Cgetaddr of reg * reg
  | Cgetbase of reg * reg
  | Cgetlen of reg * reg
  | Cgettag of reg * reg
  | Cgettype of reg * reg
  | Cgetperm of reg * reg
  | Cseal of reg * reg * reg
  | Cunseal of reg * reg * reg
  | Csealentry of reg * reg * Capability.Otype.sentry
  | Auipcc of reg * string
  | Cjalr of reg * reg
  | Cjal of reg * string
  | Cspecialrw of reg * int * reg
  | Ccleartag of reg * reg
  | Trapif of string
  | Halt

type item = I of instr | L of string

type program = {
  prog_name : string;
  instrs : instr array;
  labels : (string, int) Hashtbl.t;
}

(* Register operands of an instruction (each must be 0..15). *)
let regs = function
  | J _ | Trapif _ | Halt -> []
  | Li (a, _) | Cjal (a, _) | Auipcc (a, _) -> [ a ]
  | Mv (a, b)
  | Addi (a, b, _)
  | Andi (a, b, _)
  | Beq (a, b, _)
  | Bne (a, b, _)
  | Bltu (a, b, _)
  | Bgeu (a, b, _)
  | Lw (a, _, b)
  | Sw (a, _, b)
  | Clc (a, _, b)
  | Csc (a, _, b)
  | Cincaddrimm (a, b, _)
  | Csetboundsimm (a, b, _)
  | Candperm (a, b, _)
  | Cgetaddr (a, b)
  | Cgetbase (a, b)
  | Cgetlen (a, b)
  | Cgettag (a, b)
  | Cgettype (a, b)
  | Cgetperm (a, b)
  | Csealentry (a, b, _)
  | Cjalr (a, b)
  | Cspecialrw (a, _, b)
  | Ccleartag (a, b) ->
      [ a; b ]
  | Add (a, b, c)
  | Sub (a, b, c)
  | Cincaddr (a, b, c)
  | Csetaddr (a, b, c)
  | Csetbounds (a, b, c)
  | Cseal (a, b, c)
  | Cunseal (a, b, c) ->
      [ a; b; c ]

let assemble ~name items =
  let labels = Hashtbl.create 16 in
  let n =
    List.fold_left
      (fun i item ->
        match item with
        | I _ -> i + 1
        | L l ->
            if Hashtbl.mem labels l then
              invalid_arg (Printf.sprintf "assemble %s: duplicate label %s" name l);
            Hashtbl.add labels l i;
            i)
      0 items
  in
  let instrs = Array.make n Halt in
  let _ =
    List.fold_left
      (fun i item ->
        match item with
        | I ins ->
            instrs.(i) <- ins;
            i + 1
        | L _ -> i)
      0 items
  in
  let check_label l =
    if not (Hashtbl.mem labels l) then
      invalid_arg (Printf.sprintf "assemble %s: undefined label %s" name l)
  in
  Array.iter
    (function
      | Beq (_, _, l) | Bne (_, _, l) | Bltu (_, _, l) | Bgeu (_, _, l)
      | J l
      | Cjal (_, l)
      | Auipcc (_, l) ->
          check_label l
      | _ -> ())
    instrs;
  let bad what v i =
    invalid_arg
      (Printf.sprintf "assemble %s: %s %d out of range at instruction %d" name what v i)
  in
  Array.iteri
    (fun i ins ->
      List.iter (fun r -> if r < 0 || r > 15 then bad "register" r i) (regs ins);
      match ins with
      | Cspecialrw (_, s, _) when s < 0 || s > 2 -> bad "special register" s i
      | _ -> ())
    instrs;
  { prog_name = name; instrs; labels }

let length p = Array.length p.instrs
let code_bytes p = 4 * length p
let fetch p i = if i >= 0 && i < Array.length p.instrs then Some p.instrs.(i) else None
let instr_at p i = p.instrs.(i)

let label_index p l =
  match Hashtbl.find_opt p.labels l with
  | Some i -> i
  | None -> invalid_arg ("label_index: " ^ l)

let r i = Printf.sprintf "c%d" i

let pp_instr ppf ins =
  let s =
    match ins with
    | Li (rd, v) -> Printf.sprintf "li %s, %d" (r rd) v
    | Mv (rd, rs) -> Printf.sprintf "mv %s, %s" (r rd) (r rs)
    | Addi (rd, rs, v) -> Printf.sprintf "addi %s, %s, %d" (r rd) (r rs) v
    | Add (rd, a, b) -> Printf.sprintf "add %s, %s, %s" (r rd) (r a) (r b)
    | Sub (rd, a, b) -> Printf.sprintf "sub %s, %s, %s" (r rd) (r a) (r b)
    | Andi (rd, rs, v) -> Printf.sprintf "andi %s, %s, %d" (r rd) (r rs) v
    | Beq (a, b, l) -> Printf.sprintf "beq %s, %s, %s" (r a) (r b) l
    | Bne (a, b, l) -> Printf.sprintf "bne %s, %s, %s" (r a) (r b) l
    | Bltu (a, b, l) -> Printf.sprintf "bltu %s, %s, %s" (r a) (r b) l
    | Bgeu (a, b, l) -> Printf.sprintf "bgeu %s, %s, %s" (r a) (r b) l
    | J l -> Printf.sprintf "j %s" l
    | Lw (rd, i, rs) -> Printf.sprintf "lw %s, %d(%s)" (r rd) i (r rs)
    | Sw (rs2, i, rs1) -> Printf.sprintf "sw %s, %d(%s)" (r rs2) i (r rs1)
    | Clc (rd, i, rs) -> Printf.sprintf "clc %s, %d(%s)" (r rd) i (r rs)
    | Csc (rs2, i, rs1) -> Printf.sprintf "csc %s, %d(%s)" (r rs2) i (r rs1)
    | Cincaddr (rd, a, b) -> Printf.sprintf "cincaddr %s, %s, %s" (r rd) (r a) (r b)
    | Cincaddrimm (rd, a, v) -> Printf.sprintf "cincaddr %s, %s, %d" (r rd) (r a) v
    | Csetaddr (rd, a, b) -> Printf.sprintf "csetaddr %s, %s, %s" (r rd) (r a) (r b)
    | Csetbounds (rd, a, b) -> Printf.sprintf "csetbounds %s, %s, %s" (r rd) (r a) (r b)
    | Csetboundsimm (rd, a, v) -> Printf.sprintf "csetbounds %s, %s, %d" (r rd) (r a) v
    | Candperm (rd, a, v) -> Printf.sprintf "candperm %s, %s, 0x%x" (r rd) (r a) v
    | Cgetaddr (rd, a) -> Printf.sprintf "cgetaddr %s, %s" (r rd) (r a)
    | Cgetbase (rd, a) -> Printf.sprintf "cgetbase %s, %s" (r rd) (r a)
    | Cgetlen (rd, a) -> Printf.sprintf "cgetlen %s, %s" (r rd) (r a)
    | Cgettag (rd, a) -> Printf.sprintf "cgettag %s, %s" (r rd) (r a)
    | Cgettype (rd, a) -> Printf.sprintf "cgettype %s, %s" (r rd) (r a)
    | Cgetperm (rd, a) -> Printf.sprintf "cgetperm %s, %s" (r rd) (r a)
    | Cseal (rd, a, k) -> Printf.sprintf "cseal %s, %s, %s" (r rd) (r a) (r k)
    | Cunseal (rd, a, k) -> Printf.sprintf "cunseal %s, %s, %s" (r rd) (r a) (r k)
    | Csealentry (rd, a, _) -> Printf.sprintf "csealentry %s, %s" (r rd) (r a)
    | Auipcc (rd, l) -> Printf.sprintf "auipcc %s, %s" (r rd) l
    | Cjalr (rd, rs) -> Printf.sprintf "cjalr %s, %s" (r rd) (r rs)
    | Cjal (rd, l) -> Printf.sprintf "cjal %s, %s" (r rd) l
    | Cspecialrw (rd, s, rs) -> Printf.sprintf "cspecialrw %s, scr%d, %s" (r rd) s (r rs)
    | Ccleartag (rd, a) -> Printf.sprintf "ccleartag %s, %s" (r rd) (r a)
    | Trapif c -> Printf.sprintf "trap! %s" c
    | Halt -> "halt"
  in
  Fmt.string ppf s

let pp_program ppf p =
  Fmt.pf ppf "%s (%d instructions):@." p.prog_name (length p);
  let rev_labels = Hashtbl.create 16 in
  Hashtbl.iter (fun l i -> Hashtbl.add rev_labels i l) p.labels;
  Array.iteri
    (fun i ins ->
      List.iter (fun l -> Fmt.pf ppf "%s:@." l) (Hashtbl.find_all rev_labels i);
      Fmt.pf ppf "  %04d: %a@." i pp_instr ins)
    p.instrs
