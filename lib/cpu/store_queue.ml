module Int_ring = Skipit_sim.Int_ring

(* Drain times of the entries still draining, oldest first.  Each insert
   clamps its drain time to the latest one already queued (stores drain in
   order), so the times are nondecreasing and the newest is the latest. *)
type t = { entries : int; q : Int_ring.t }

let create ~entries =
  if entries <= 0 then invalid_arg "Store_queue.create: no entries";
  { entries; q = Int_ring.create ~capacity:entries }

let capacity t = t.entries

let prune t ~now =
  while (not (Int_ring.is_empty t.q)) && Int_ring.peek t.q <= now do
    ignore (Int_ring.pop t.q)
  done

let latest t = if Int_ring.is_empty t.q then 0 else Int_ring.last t.q

let insert t ~now ~drain_at =
  prune t ~now;
  let commit =
    if Int_ring.length t.q >= t.entries then max now (Int_ring.pop t.q) else now
  in
  (* Entries drain in order; a later store never completes before an
     earlier one (stores fire in order, §3.2). *)
  let drain_at = match latest t with 0 -> drain_at | latest -> max drain_at latest in
  Int_ring.push t.q drain_at;
  commit

let drained_at t ~now =
  prune t ~now;
  max now (latest t)

let occupancy t ~now =
  prune t ~now;
  Int_ring.length t.q
