module FU = Skipit_l1.Flush_unit
module Params = Skipit_cache.Params
open Skipit_tilelink

let params ?(n_fshrs = 2) ?(depth = 2) ?(coalescing = true) () =
  { Params.boom_default with Params.n_fshrs; flush_queue_depth = depth; coalescing }

let ack_after = 50

(* A flush unit whose client ignores metadata effects and acks every
   release [ack_after] cycles after it is sent. *)
let create p ~core =
  let fu = FU.create p ~core in
  FU.connect fu
    {
      FU.apply_meta = (fun ~addr:_ _ -> ());
      send = (fun ~addr:_ ~kind:_ ~data:_ ~now -> now + ack_after);
    };
  fu

let submit ?(kind = Message.Wb_clean) ?(hit = true) ?(dirty = true) ?(last_change = min_int) fu
    ~addr ~now =
  let line_data = if hit && dirty then Some (Array.make 8 0) else None in
  FU.submit fu ~addr ~kind ~hit ~dirty ~line_data ~last_line_change:last_change ~now


(* Coalescing applies to requests still waiting in the queue (§5.3); pin a
   single FSHR down with a blocker so the next request queues. *)
let with_queued_partner fu ~addr ~now =
  ignore (submit fu ~addr:0xF000 ~now:(now - 1));
  match submit fu ~addr ~now with
  | FU.Accepted p ->
    assert (p.FU.alloc_at > now);
    p
  | FU.Coalesced _ -> Alcotest.fail "partner cannot coalesce"

let test_commit_is_early () =
  let fu = create (params ()) ~core:0 in
  match submit fu ~addr:0x40 ~now:10 with
  | FU.Accepted p ->
    Alcotest.(check int) "commits at enqueue" 10 p.FU.commit_at;
    Alcotest.(check bool) "ack much later" true (p.FU.ack_at >= 10 + ack_after);
    Alcotest.(check bool) "release before ack" true (p.FU.release_at < p.FU.ack_at)
  | FU.Coalesced _ -> Alcotest.fail "unexpected coalesce"

let test_depth_zero_synchronous () =
  let fu = create (params ~depth:0 ()) ~core:0 in
  match submit fu ~addr:0x40 ~now:10 with
  | FU.Accepted p ->
    Alcotest.(check int) "no queue => commit at completion" p.FU.ack_at p.FU.commit_at
  | FU.Coalesced _ -> Alcotest.fail "unexpected coalesce"

let test_fshr_parallelism () =
  (* 2 FSHRs: two writebacks overlap, the third queues behind the first. *)
  let fu = create (params ~n_fshrs:2 ~depth:8 ()) ~core:0 in
  let acks =
    List.map
      (fun addr ->
        match submit fu ~addr ~now:0 with
        | FU.Accepted p -> p.FU.ack_at
        | FU.Coalesced _ -> Alcotest.fail "unexpected coalesce")
      [ 0x40; 0x80; 0xc0 ]
  in
  match acks with
  | [ a1; a2; a3 ] ->
    Alcotest.(check bool) "two overlap" true (a2 - a1 < ack_after / 2);
    Alcotest.(check bool) "third serialized behind first" true (a3 >= a1 + ack_after)
  | _ -> assert false

let test_queue_backpressure () =
  (* Depth 1, 1 FSHR: the third request stalls until a queue slot frees. *)
  let fu = create (params ~n_fshrs:1 ~depth:1 ()) ~core:0 in
  let commits =
    List.map
      (fun addr ->
        match submit fu ~addr ~now:0 with
        | FU.Accepted p -> p.FU.commit_at
        | FU.Coalesced _ -> Alcotest.fail "unexpected coalesce")
      [ 0x40; 0x80; 0xc0 ]
  in
  match commits with
  | [ c1; c2; c3 ] ->
    Alcotest.(check int) "first immediate" 0 c1;
    Alcotest.(check int) "second buffered immediately" 0 c2;
    Alcotest.(check bool) "third waits for a slot" true (c3 > 0)
  | _ -> assert false

let test_coalescing () =
  let fu = create (params ~n_fshrs:1 ~depth:8 ()) ~core:0 in
  let first = with_queued_partner fu ~addr:0x40 ~now:1 in
  (match submit fu ~addr:0x40 ~now:5 with
   | FU.Coalesced { ack_at; _ } ->
     Alcotest.(check int) "rides the queued writeback" first.FU.ack_at ack_at
   | FU.Accepted _ -> Alcotest.fail "expected coalesce");
  (* Different kind never coalesces. *)
  (match submit fu ~kind:Message.Wb_flush ~addr:0x40 ~now:6 with
   | FU.Accepted _ -> ()
   | FU.Coalesced _ -> Alcotest.fail "kinds must not merge");
  Alcotest.(check int) "stats" 1 (Skipit_sim.Stats.Registry.get (FU.stats fu) "coalesced")

let test_coalescing_blocked_by_line_change () =
  let fu = create (params ~n_fshrs:1 ~depth:8 ()) ~core:0 in
  ignore (with_queued_partner fu ~addr:0x40 ~now:1);
  (* A store at t=3 changed the line: the t=5 request must not merge. *)
  match submit fu ~addr:0x40 ~now:5 ~last_change:3 with
  | FU.Accepted _ -> ()
  | FU.Coalesced _ -> Alcotest.fail "state changed between the two CBO.X"

let test_coalescing_disabled () =
  let fu = create (params ~coalescing:false ~n_fshrs:1 ~depth:8 ()) ~core:0 in
  ignore (with_queued_partner fu ~addr:0x40 ~now:1);
  match submit fu ~addr:0x40 ~now:5 with
  | FU.Accepted _ -> ()
  | FU.Coalesced _ -> Alcotest.fail "coalescing disabled"

let test_no_coalescing_once_allocated () =
  (* Once the partner holds an FSHR its metadata write is a state change of
     its own: later requests must not merge (§5.3 reading). *)
  let fu = create (params ~n_fshrs:2 ~depth:8 ()) ~core:0 in
  (match submit fu ~addr:0x40 ~now:0 with
   | FU.Accepted p -> assert (p.FU.alloc_at = 0)
   | FU.Coalesced _ -> assert false);
  match submit fu ~addr:0x40 ~now:5 with
  | FU.Accepted _ -> ()
  | FU.Coalesced _ -> Alcotest.fail "partner already left the queue"

let test_fence_waits_for_all () =
  let fu = create (params ~n_fshrs:2 ~depth:8 ()) ~core:0 in
  let acks =
    List.filter_map
      (fun addr ->
        match submit fu ~addr ~now:0 with FU.Accepted p -> Some p.FU.ack_at | _ -> None)
      [ 0x40; 0x80; 0xc0; 0x100 ]
  in
  let latest = List.fold_left max 0 acks in
  Alcotest.(check int) "fence = last ack" latest (FU.fence_ready_at fu ~now:1);
  Alcotest.(check int) "outstanding" 4 (FU.outstanding fu ~now:1);
  Alcotest.(check int) "drained after" 0 (FU.outstanding fu ~now:(latest + 1));
  Alcotest.(check int) "fence free once drained" (latest + 1)
    (FU.fence_ready_at fu ~now:(latest + 1))

let test_load_conflict_forwarding () =
  let fu = create (params ()) ~core:0 in
  let p =
    match submit fu ~addr:0x40 ~now:0 with FU.Accepted p -> p | _ -> assert false
  in
  (* Dirty request: buffer gets filled; loads forward from it (§5.3). *)
  (match FU.load_conflict fu ~addr:0x40 ~now:1 with
   | FU.Load_forward t ->
     Alcotest.(check int) "ready when buffer filled"
       (max 1 (Option.get p.FU.buffer_ready_at)) t
   | _ -> Alcotest.fail "expected forwarding");
  (* Clean-line request: no data buffer; loads must wait for completion. *)
  let p2 =
    match submit fu ~addr:0x80 ~dirty:false ~now:0 with
    | FU.Accepted p -> p
    | _ -> assert false
  in
  (match FU.load_conflict fu ~addr:0x80 ~now:1 with
   | FU.Load_wait t -> Alcotest.(check int) "waits for ack" p2.FU.ack_at t
   | _ -> Alcotest.fail "expected wait");
  match FU.load_conflict fu ~addr:0x200 ~now:1 with
  | FU.Load_no_conflict -> ()
  | _ -> Alcotest.fail "unrelated line must not conflict"

let test_store_rules () =
  let fu = create (params ()) ~core:0 in
  (* Pending flush: stores wait for the ack. *)
  let pf =
    match submit fu ~kind:Message.Wb_flush ~addr:0x40 ~now:0 with
    | FU.Accepted p -> p
    | _ -> assert false
  in
  (match FU.store_proceed_at fu ~addr:0x40 ~now:1 with
   | Some t -> Alcotest.(check int) "flush blocks stores until ack" pf.FU.ack_at t
   | None -> Alcotest.fail "expected conflict");
  (* Pending clean with filled buffer: stores proceed once filled. *)
  let pc =
    match submit fu ~kind:Message.Wb_clean ~addr:0x80 ~now:0 with
    | FU.Accepted p -> p
    | _ -> assert false
  in
  (match FU.store_proceed_at fu ~addr:0x80 ~now:1 with
   | Some t ->
     Alcotest.(check bool) "clean releases stores early" true (t < pc.FU.ack_at);
     Alcotest.(check bool) "but not before the buffer fill" true
       (t >= Option.get pc.FU.buffer_ready_at || t = 1)
   | None -> Alcotest.fail "expected conflict");
  Alcotest.(check bool) "unrelated line free" true
    (FU.store_proceed_at fu ~addr:0x200 ~now:1 = None)

let test_probe_interlock () =
  (* §5.4.1: while an FSHR holds the line (flush_rdy low), probes wait for
     release_at. *)
  let fu = create (params ()) ~core:0 in
  let p =
    match submit fu ~addr:0x40 ~now:0 with FU.Accepted p -> p | _ -> assert false
  in
  let t = FU.probe_block_until fu ~addr:0x40 ~cap:Perm.Nothing ~now:(p.FU.alloc_at + 1) in
  Alcotest.(check int) "probe waits for release" p.FU.release_at t;
  let t2 = FU.probe_block_until fu ~addr:0x40 ~cap:Perm.Nothing ~now:(p.FU.release_at + 1) in
  Alcotest.(check int) "after release probes flow" (p.FU.release_at + 1) t2;
  let t3 = FU.evict_block_until fu ~addr:0x40 ~now:(p.FU.alloc_at + 1) in
  Alcotest.(check int) "evictions obey the same interlock" p.FU.release_at t3

let test_skip_counter () =
  let fu = create (params ()) ~core:0 in
  FU.note_skip_drop fu;
  FU.note_skip_drop fu;
  Alcotest.(check int) "skip drops" 2
    (Skipit_sim.Stats.Registry.get (FU.stats fu) "skip_dropped")

let tests =
  ( "flush_unit",
    [
      Alcotest.test_case "early commit" `Quick test_commit_is_early;
      Alcotest.test_case "depth-0 synchronous" `Quick test_depth_zero_synchronous;
      Alcotest.test_case "FSHR parallelism" `Quick test_fshr_parallelism;
      Alcotest.test_case "queue back-pressure" `Quick test_queue_backpressure;
      Alcotest.test_case "coalescing" `Quick test_coalescing;
      Alcotest.test_case "coalescing blocked by change" `Quick test_coalescing_blocked_by_line_change;
      Alcotest.test_case "coalescing disabled" `Quick test_coalescing_disabled;
      Alcotest.test_case "no coalescing once allocated" `Quick test_no_coalescing_once_allocated;
      Alcotest.test_case "fence waits for all" `Quick test_fence_waits_for_all;
      Alcotest.test_case "load forwarding rules" `Quick test_load_conflict_forwarding;
      Alcotest.test_case "store rules" `Quick test_store_rules;
      Alcotest.test_case "probe/evict interlock" `Quick test_probe_interlock;
      Alcotest.test_case "skip counter" `Quick test_skip_counter;
    ] )
