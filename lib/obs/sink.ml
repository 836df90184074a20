type 'a t = { key : 'a option Domain.DLS.key; installed : int Atomic.t }

let create () = { key = Domain.DLS.new_key (fun () -> None); installed = Atomic.make 0 }

let get t = if Atomic.get t.installed = 0 then None else Domain.DLS.get t.key

let set t v =
  (match Domain.DLS.get t.key, v with
   | None, Some _ -> Atomic.incr t.installed
   | Some _, None -> Atomic.decr t.installed
   | Some _, Some _ | None, None -> ());
  Domain.DLS.set t.key v
