module Otype = struct
  type sentry =
    | Call_inherit
    | Call_disable
    | Call_enable
    | Return_disable
    | Return_enable

  type t = Unsealed | Sentry of sentry | Data of int

  let data_first = 9
  let data_last = 15

  let equal a b =
    match (a, b) with
    | Unsealed, Unsealed -> true
    | Sentry s1, Sentry s2 -> s1 = s2
    | Data d1, Data d2 -> d1 = d2
    | (Unsealed | Sentry _ | Data _), _ -> false

  let sentry_to_string = function
    | Call_inherit -> "sentry"
    | Call_disable -> "sentry-id"
    | Call_enable -> "sentry-ie"
    | Return_disable -> "rsentry-id"
    | Return_enable -> "rsentry-ie"

  let to_string = function
    | Unsealed -> "unsealed"
    | Sentry s -> sentry_to_string s
    | Data d -> "sealed:" ^ string_of_int d

  let pp ppf o = Fmt.string ppf (to_string o)
end

type t = {
  tag : bool;
  base : int;
  top : int;
  cursor : int;
  perms : Perm.Set.t;
  otype : Otype.t;
}

type violation =
  | Tag_violation
  | Seal_violation
  | Bounds_violation
  | Permit_violation of Perm.t
  | Otype_violation

let violation_to_string = function
  | Tag_violation -> "tag violation"
  | Seal_violation -> "seal violation"
  | Bounds_violation -> "bounds violation"
  | Permit_violation p -> "permit violation: " ^ Perm.to_string p
  | Otype_violation -> "otype violation"

let pp_violation ppf v = Fmt.string ppf (violation_to_string v)

exception Derivation of violation

let null =
  { tag = false; base = 0; top = 0; cursor = 0; perms = Perm.Set.empty;
    otype = Otype.Unsealed }

let make_root ~base ~top ~perms =
  assert (0 <= base && base <= top);
  { tag = true; base; top; cursor = base; perms; otype = Otype.Unsealed }

let make_sealing_root ~first ~last =
  { tag = true; base = first; top = last + 1; cursor = first;
    perms = Perm.Set.sealing; otype = Otype.Unsealed }

let tag c = c.tag
let address c = c.cursor
let base c = c.base
let top c = c.top
let length c = c.top - c.base
let perms c = c.perms
let otype c = c.otype

let is_sealed c =
  match c.otype with Otype.Unsealed -> false | Otype.Sentry _ | Otype.Data _ -> true

let has_perm p c = Perm.Set.mem p c.perms

let in_bounds ?(size = 1) c =
  c.cursor >= c.base && c.cursor + size <= c.top

let equal a b =
  a.tag = b.tag && a.base = b.base && a.top = b.top && a.cursor = b.cursor
  && Perm.Set.equal a.perms b.perms
  && Otype.equal a.otype b.otype

let to_string c =
  Printf.sprintf "%s[0x%x..0x%x)@0x%x %s %s"
    (if c.tag then "cap" else "CAP!untagged")
    c.base c.top c.cursor (Perm.Set.to_string c.perms) (Otype.to_string c.otype)

let pp ppf c = Fmt.string ppf (to_string c)

(* Packed (flat) encoding, used by the interpreter's allocation-free
   register file ([Superblock.Packed_cap]).  The non-address fields fold into one
   small "meta" word: bit 0 = tag, bits 1-12 = the permission bitmask,
   bits 13-16 = the otype code.  The otype code deliberately matches the
   architectural [CGetType] encoding: 0 = unsealed, 1-5 = the five
   sentry kinds, 9-15 = sealed data otypes (the only values [seal] can
   produce, so 4 bits suffice and codes 6-8 stay unused). *)

let sentry_code = function
  | Otype.Call_inherit -> 1
  | Otype.Call_disable -> 2
  | Otype.Call_enable -> 3
  | Otype.Return_disable -> 4
  | Otype.Return_enable -> 5

let otype_code = function
  | Otype.Unsealed -> 0
  | Otype.Sentry s -> sentry_code s
  | Otype.Data d -> d

let otype_of_code = function
  | 0 -> Otype.Unsealed
  | 1 -> Otype.Sentry Otype.Call_inherit
  | 2 -> Otype.Sentry Otype.Call_disable
  | 3 -> Otype.Sentry Otype.Call_enable
  | 4 -> Otype.Sentry Otype.Return_disable
  | 5 -> Otype.Sentry Otype.Return_enable
  | d when d >= Otype.data_first && d <= Otype.data_last -> Otype.Data d
  | c -> invalid_arg (Printf.sprintf "Capability.of_meta: otype code %d" c)

let meta c =
  (if c.tag then 1 else 0)
  lor (Perm.Set.to_bits c.perms lsl 1)
  lor (otype_code c.otype lsl 13)

let of_meta ~meta:m ~base ~top ~cursor =
  {
    tag = m land 1 = 1;
    base;
    top;
    cursor;
    perms = Perm.Set.of_bits ((m lsr 1) land 0xfff);
    otype = otype_of_code (m lsr 13);
  }

let guard_exact c =
  if not c.tag then Error Tag_violation
  else if is_sealed c then Error Seal_violation
  else Ok c

let with_address c addr =
  if is_sealed c then Error Seal_violation
  else Ok { c with cursor = addr }

let with_address_unsealed c addr = { c with cursor = addr }

let incr_address c delta = with_address c (c.cursor + delta)

let set_bounds c ~length =
  match guard_exact c with
  | Error _ as e -> e
  | Ok c ->
      if length < 0 then Error Bounds_violation
      else if c.cursor < c.base || c.cursor + length > c.top then
        Error Bounds_violation
      else Ok { c with base = c.cursor; top = c.cursor + length }

let and_perms c mask =
  match guard_exact c with
  | Error _ as e -> e
  | Ok c -> Ok { c with perms = Perm.Set.inter c.perms mask }

let clear_tag c = { c with tag = false }

let data_otype_of_key key =
  if not key.tag then Error Tag_violation
  else if is_sealed key then Error Seal_violation
  else if key.cursor < key.base || key.cursor >= key.top then
    Error Bounds_violation
  else if key.cursor < Otype.data_first || key.cursor > Otype.data_last then
    Error Otype_violation
  else Ok key.cursor

let seal ~key c =
  if not (Perm.Set.mem Perm.Seal key.perms) then
    Error (Permit_violation Perm.Seal)
  else
    match data_otype_of_key key with
    | Error _ as e -> e
    | Ok ot -> (
        match guard_exact c with
        | Error _ as e -> e
        | Ok c -> Ok { c with otype = Otype.Data ot })

let unseal ~key c =
  if not (Perm.Set.mem Perm.Unseal key.perms) then
    Error (Permit_violation Perm.Unseal)
  else
    match data_otype_of_key key with
    | Error _ as e -> e
    | Ok ot -> (
        if not c.tag then Error Tag_violation
        else
          match c.otype with
          | Otype.Data d when d = ot -> Ok { c with otype = Otype.Unsealed }
          | Otype.Data _ | Otype.Unsealed | Otype.Sentry _ ->
              Error Otype_violation)

let seal_entry c kind =
  match guard_exact c with
  | Error _ as e -> e
  | Ok c ->
      if not (Perm.Set.mem Perm.Execute c.perms) then
        Error (Permit_violation Perm.Execute)
      else Ok { c with otype = Otype.Sentry kind }

let unseal_sentry c =
  if not c.tag then Error Tag_violation
  else
    match c.otype with
    | Otype.Sentry _ -> Ok { c with otype = Otype.Unsealed }
    | Otype.Unsealed | Otype.Data _ -> Error Seal_violation

let check_access ~perm ~addr ~size c =
  if not c.tag then Error Tag_violation
  else if is_sealed c then Error Seal_violation
  else if not (Perm.Set.mem perm c.perms) then Error (Permit_violation perm)
  else if addr < c.base || addr + size > c.top then Error Bounds_violation
  else Ok ()

let attenuate_loaded_perms auth_perms c =
  if not c.tag then c
  else
    let strip_mutable =
      (not (Perm.Set.mem Perm.Load_mutable auth_perms))
      && match c.otype with Otype.Sentry _ -> false | _ -> true
    in
    let perms =
      if strip_mutable then
        Perm.Set.(remove Perm.Store (remove Perm.Load_mutable c.perms))
      else c.perms
    in
    let perms =
      if not (Perm.Set.mem Perm.Load_global auth_perms) then
        Perm.Set.(remove Perm.Global (remove Perm.Load_global perms))
      else perms
    in
    if Perm.Set.equal perms c.perms then c else { c with perms }

let attenuate_loaded ~auth c = attenuate_loaded_perms auth.perms c

let exn = function Ok c -> c | Error v -> raise (Derivation v)
let with_address_exn c a = exn (with_address c a)
let seal_entry_exn c kind = exn (seal_entry c kind)
