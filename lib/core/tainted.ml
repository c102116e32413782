type 'a t = Tainted of 'a

let source v = Tainted v

let use (Tainted v) ~check f =
  if check v then Ok (f v) else Error "tainted value failed validation"

let map f (Tainted v) = Tainted (f v)
let both (Tainted a) (Tainted b) = Tainted (a, b)

let use_pointer ctx t ?(perms = Perm.Set.empty) ?(min_length = 0) f =
  use t ~check:(fun v -> Hardening.check_pointer ctx ~perms ~min_length v) f
