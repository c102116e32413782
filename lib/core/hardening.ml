module Cap = Capability

let charge ctx n = Machine.tick (Kernel.machine ctx.Kernel.kernel) n

let check_pointer ctx ?(perms = Perm.Set.empty) ?(min_length = 0) v =
  charge ctx 4;
  Cap.tag v
  && not (Cap.is_sealed v)
  && Perm.Set.subset perms (Cap.perms v)
  && Cap.length v >= min_length
  && Cap.address v >= Cap.base v
  && Cap.address v + min_length <= Cap.top v

let deprivilege ctx ?length ~perms v =
  charge ctx 6;
  let narrowed =
    match length with
    | None -> Ok v
    | Some l -> Cap.set_bounds v ~length:l
  in
  match narrowed with
  | Error _ -> Cap.null
  | Ok c -> ( match Cap.and_perms c perms with Ok c -> c | Error _ -> Cap.null)

let read_only ctx v = deprivilege ctx ~perms:Perm.Set.read_only v

let immutable ctx v =
  deprivilege ctx
    ~perms:Perm.Set.(remove Perm.Store (remove Perm.Load_mutable universe))
    v

let no_capture ctx v =
  deprivilege ctx
    ~perms:Perm.Set.(remove Perm.Global (remove Perm.Load_global universe))
    v

let claim_arg ctx v = Kernel.ephemeral_claim ctx v
