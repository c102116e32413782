(* Random programs for the differential suites.  Every instruction of
   the ISA appears.  Registers 1..5 are scratch integers and the only
   destinations; the sources also draw on 0 (NULL), 6 (a data capability
   over 1 KiB of SRAM), 7 (a deliberately narrow one), 8 (a sentry back
   to the code segment, set by each suite) and 9 (a sealing root), so
   derivations, seals and unseals both succeed and fault; a few short
   idioms (seal then unseal around the key's bounds, make a sentry and
   jump through it) make the
   rarer successes likely before some fault ends the run.  One idiom is
   the switcher's stack-zeroing loop on r6, so the engine's closed form
   of that loop meets windows that end, overrun and never meet their
   end.  Branch targets come from a fixed label pool placed at random
   positions, plus fresh labels inside the zeroing idiom, so
   [Isa.assemble] always validates. *)

module Cap = Capability

let n_labels = 4

let sentry_kinds =
  Cap.Otype.[| Call_inherit; Call_disable; Call_enable; Return_disable; Return_enable |]

let gen_instr rng labels =
  let int n = Random.State.int rng n in
  let reg () = 1 + int 5 in
  (* a source: often a scratch register, whose contents earlier
     instructions derived, else any register *)
  let src () = if int 2 = 0 then reg () else int 10 in
  let label () = List.nth labels (int (List.length labels)) in
  let small () = int 64 - 8 in
  (* mostly in-bounds accesses through r6; r7 is narrow, so the same
     offsets exercise the capability-fault path *)
  let auth () = if int 4 = 0 then 7 else 6 in
  let key () = if int 2 = 0 then 9 else src () in
  match int 130 with
  | n when n < 10 -> Isa.Li (reg (), if int 2 = 0 then int 24 else int 1000)
  | n when n < 18 -> Isa.Addi (reg (), reg (), small ())
  | n when n < 24 -> Isa.Add (reg (), reg (), reg ())
  | n when n < 28 -> Isa.Sub (reg (), reg (), reg ())
  | n when n < 32 -> Isa.Andi (reg (), reg (), int 255)
  | n when n < 36 -> Isa.Mv (reg (), src ())
  | n when n < 44 -> Isa.Beq (reg (), reg (), label ())
  | n when n < 50 -> Isa.Bne (reg (), reg (), label ())
  | n when n < 54 -> Isa.Bltu (reg (), reg (), label ())
  | n when n < 58 -> Isa.Bgeu (reg (), reg (), label ())
  | n when n < 62 -> Isa.J (label ())
  | n when n < 68 -> Isa.Lw (reg (), 4 * int 40, auth ())
  | n when n < 74 -> Isa.Sw (reg (), 4 * int 40, auth ())
  | n when n < 78 -> Isa.Clc (reg (), 8 * int 20, auth ())
  | n when n < 82 -> Isa.Csc (src (), 8 * int 20, auth ())
  | n when n < 85 -> Isa.Cincaddr (reg (), src (), reg ())
  | n when n < 89 -> Isa.Cincaddrimm (reg (), (if int 4 = 0 then 9 else 6), small ())
  | n when n < 91 -> Isa.Csetaddr (reg (), src (), reg ())
  | n when n < 93 -> Isa.Csetbounds (reg (), src (), reg ())
  | n when n < 96 -> Isa.Csetboundsimm (reg (), 6, int 128)
  | n when n < 98 -> Isa.Candperm (reg (), src (), int 4096)
  | n when n < 100 -> Isa.Cgetaddr (reg (), src ())
  | n when n < 101 -> Isa.Cgetbase (reg (), src ())
  | n when n < 103 -> Isa.Cgetlen (reg (), src ())
  | n when n < 105 -> Isa.Cgettag (reg (), src ())
  | n when n < 106 -> Isa.Cgettype (reg (), src ())
  | n when n < 108 -> Isa.Cgetperm (reg (), src ())
  | n when n < 110 -> Isa.Cseal (reg (), src (), key ())
  | n when n < 112 -> Isa.Cunseal (reg (), src (), key ())
  | n when n < 114 ->
      Isa.Csealentry (reg (), src (), sentry_kinds.(int (Array.length sentry_kinds)))
  | n when n < 116 -> Isa.Ccleartag (reg (), src ())
  | n when n < 118 -> Isa.Cspecialrw (reg (), int 3, src ())
  | n when n < 122 -> Isa.Cjal (reg (), label ())
  | n when n < 126 -> Isa.Auipcc (reg (), label ())
  | n when n < 127 -> Isa.Cjalr (reg (), 8)
  | n when n < 128 -> Isa.Trapif "generated"
  | _ -> Isa.Halt

(* Window lengths for the zeroing idiom: whole trips (0 exits at once),
   lengths off the trip grid and one behind the cursor (all three loop
   until r6's top traps them), and one longer than what is left of
   r6. *)
let zero_lens = [| 0; 16; 48; 128; 256; 24; 8; -16; 2048 |]

(* One generated unit: usually a single instruction, sometimes an
   idiom whose later instructions use what the first one derived.
   [fresh ()] names a label no other unit uses. *)
let gen_unit rng labels ~fresh =
  let int n = Random.State.int rng n in
  let reg () = 1 + int 5 in
  match int 40 with
  | 0 ->
      (* a key one below the sealing root's base up to its top *)
      let a = reg () and k = reg () in
      Isa.
        [
          I (Cincaddrimm (k, 9, int 9 - 1));
          I (Cseal (a, (if int 2 = 0 then 6 else reg ()), k));
          I (Cunseal (reg (), a, if int 2 = 0 then k else 9));
        ]
  | 1 ->
      let a = reg () and b = reg () in
      let kind = sentry_kinds.(int (Array.length sentry_kinds)) in
      let label = List.nth labels (int (List.length labels)) in
      Isa.[ I (Auipcc (a, label)); I (Csealentry (b, a, kind)); I (Cjalr (reg (), b)) ]
  | 2 ->
      (* the switcher's zeroing loop: e := r6's cursor + len, then walk
         r6 up 16 bytes a trip until its address equals e *)
      let r = reg () in
      let e = 1 + ((r + int 4) mod 5) in
      let loop = fresh () and out = fresh () in
      Isa.
        [
          I (Cgetaddr (e, 6));
          I (Addi (e, e, zero_lens.(int (Array.length zero_lens))));
          L loop;
          I (Cgetaddr (r, 6));
          I (Beq (r, e, out));
          I (Csc (0, 0, 6));
          I (Csc (0, 8, 6));
          I (Cincaddrimm (6, 6, 16));
          I (J loop);
          L out;
        ]
  | _ -> [ Isa.I (gen_instr rng labels) ]

let gen_program rng =
  let len = 8 + Random.State.int rng 32 in
  let labels = List.init n_labels (fun i -> Printf.sprintf "L%d" i) in
  (* Each label lands at a random instruction index. *)
  let label_at = Array.make len [] in
  List.iter
    (fun l ->
      let i = Random.State.int rng len in
      label_at.(i) <- l :: label_at.(i))
    labels;
  let items = ref [] in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "Z%d" !n
  in
  for i = len - 1 downto 0 do
    items := gen_unit rng labels ~fresh @ !items;
    List.iter (fun l -> items := Isa.L l :: !items) label_at.(i)
  done;
  (* Halt backstop so straight-line fall-through off the end (a legal
     Bounds trap) isn't the only way out. *)
  Isa.assemble ~name:"equiv" (!items @ [ Isa.I Isa.Halt ])

(* Registers 6, 7 and 9 as the generated programs expect them. *)
let init_regs machine set_reg =
  let sram = Machine.sram_base machine in
  set_reg 6 (Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write);
  set_reg 7 (Cap.make_root ~base:(sram + 64) ~top:(sram + 96) ~perms:Perm.Set.read_write);
  set_reg 9 (Cap.make_sealing_root ~first:Cap.Otype.data_first ~last:Cap.Otype.data_last)

(* Non-zero bytes over [addr, addr + len), with tagged capabilities in
   its first and last granules and on both sides of a 64-granule
   (512-byte) boundary: a zeroing loop that stops a trip short, or
   clears the bytes but not a tag, leaves a difference in memory. *)
let seed_window machine ~addr ~len =
  let mem = Machine.mem machine in
  for i = 0 to (len / 4) - 1 do
    Memory.store_priv mem ~addr:(addr + (4 * i)) ~size:4 (0x5eed0001 + (i * 0x10101))
  done;
  let cap = Cap.make_root ~base:addr ~top:(addr + 64) ~perms:Perm.Set.read_write in
  List.iter
    (fun off ->
      if off >= 0 && off + 8 <= len then Memory.store_cap_priv mem ~addr:(addr + off) cap)
    [ 0; 40; 504; 512; len - 8 ]
