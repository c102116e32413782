type t =
  | Global
  | Load
  | Store
  | Mem_cap
  | Load_global
  | Load_mutable
  | Store_local
  | Execute
  | System_registers
  | Seal
  | Unseal
  | User0

let all_perms =
  [ Global; Load; Store; Mem_cap; Load_global; Load_mutable; Store_local;
    Execute; System_registers; Seal; Unseal; User0 ]

let bit = function
  | Global -> 0
  | Load -> 1
  | Store -> 2
  | Mem_cap -> 3
  | Load_global -> 4
  | Load_mutable -> 5
  | Store_local -> 6
  | Execute -> 7
  | System_registers -> 8
  | Seal -> 9
  | Unseal -> 10
  | User0 -> 11

let of_bit b = List.find_opt (fun p -> bit p = b) all_perms

let to_string = function
  | Global -> "GL"
  | Load -> "LD"
  | Store -> "SD"
  | Mem_cap -> "MC"
  | Load_global -> "LG"
  | Load_mutable -> "LM"
  | Store_local -> "SL"
  | Execute -> "EX"
  | System_registers -> "SR"
  | Seal -> "SE"
  | Unseal -> "US"
  | User0 -> "U0"

let pp ppf p = Fmt.string ppf (to_string p)

module Set = struct
  type t = int

  let empty = 0
  let universe = (1 lsl List.length all_perms) - 1
  let mem p s = s land (1 lsl bit p) <> 0
  let add p s = s lor (1 lsl bit p)
  let remove p s = s land lnot (1 lsl bit p)
  let of_list = List.fold_left (fun s p -> add p s) empty
  let to_list s = List.filter (fun p -> mem p s) all_perms
  let inter a b = a land b
  let subset a b = a land b = a
  let equal (a : t) b = a = b
  (* The names concatenated in bit order. *)
  let to_string s = String.concat "" (List.map to_string (to_list s))
  let to_bits s = s
  let of_bits b = b land universe

  let read_only = of_list [ Global; Load; Mem_cap; Load_global ]

  let read_write =
    of_list [ Global; Load; Store; Mem_cap; Load_global; Load_mutable ]

  let executable =
    of_list [ Global; Load; Mem_cap; Load_global; Load_mutable; Execute ]

  let stack =
    of_list [ Load; Store; Mem_cap; Load_global; Load_mutable; Store_local ]

  let sealing = of_list [ Global; Seal; Unseal ]
end
