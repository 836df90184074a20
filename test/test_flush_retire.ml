(* Retirement of flush-unit requests against a naive list-filter model.

   The contract: a request submitted to a flush unit stays pending — it is
   counted by [outstanding], found by [find_pending] and waited for by
   [fence_ready_at] — until a query (or a coalescing [submit]) is made at a
   [now] at or after its [ack_at]; then it is gone for good, even if a
   later query carries an earlier [now].  Callers do present non-monotone
   [now] values: a cross-core probe brings the probing core's clock.  The
   model keeps each unit's accepted requests in a list, oldest first, and
   filters out the acked ones at every call that prunes. *)

module FU = Skipit_l1.Flush_unit
module FQ = Skipit_l1.Flush_queue
module Params = Skipit_cache.Params
open Skipit_tilelink

(* Release acks arrive after a line-dependent delay, so ack order differs
   from submission order and requests retire from the middle of the list.
   Line 7 of core 1 acks about 2^20 cycles later. *)
let ack_delay ~core ~addr =
  let line = addr / 64 in
  if core = 1 && line = 7 then 1 lsl 20 else 20 + (line * 37 mod 90)

let create p ~core =
  let fu = FU.create p ~core in
  FU.connect fu
    {
      FU.apply_meta = (fun ~addr:_ _ -> ());
      send = (fun ~addr ~kind:_ ~data:_ ~now -> now + ack_delay ~core ~addr);
    };
  fu

(* The model: accepted requests of one unit, oldest first. *)
type model = { mutable live : FU.pending list }

let filter m ~now = m.live <- List.filter (fun p -> p.FU.ack_at > now) m.live

type op =
  | Submit of { core : int; line : int; flush : bool; dirty : bool; dt : int }
  | Outstanding of { core : int; dt : int }
  | Find of { core : int; line : int; dt : int }
  | Fence of { core : int; dt : int }
  | Tick of int

let pp_op = function
  | Submit { core; line; flush; dirty; dt } ->
    Printf.sprintf "S%d:%d%s%s@%+d" core line (if flush then "f" else "c")
      (if dirty then "d" else "") dt
  | Outstanding { core; dt } -> Printf.sprintf "O%d@%+d" core dt
  | Find { core; line; dt } -> Printf.sprintf "F%d:%d@%+d" core line dt
  | Fence { core; dt } -> Printf.sprintf "N%d@%+d" core dt
  | Tick d -> Printf.sprintf "T%d" d

(* [dt] offsets a call's [now] from the running clock, backwards as often
   as forwards. *)
let op_gen =
  QCheck.Gen.(
    let core = int_range 0 1 and line = int_range 0 7 and dt = int_range (-60) 60 in
    frequency
      [
        ( 4,
          map (fun ((core, line, dt), (flush, dirty)) -> Submit { core; line; flush; dirty; dt })
            (pair (triple core line dt) (pair bool bool)) );
        (2, map2 (fun core dt -> Outstanding { core; dt }) core dt);
        (2, map3 (fun core line dt -> Find { core; line; dt }) core line dt);
        (1, map2 (fun core dt -> Fence { core; dt }) core dt);
        (2, map (fun d -> Tick d) (int_range 0 40));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 150) op_gen)

let run_script params ops =
  let units = Array.init 2 (fun core -> create params ~core) in
  let models = Array.init 2 (fun _ -> { live = [] }) in
  let clock = ref 100 in
  let at dt = max 0 (!clock + dt) in
  let agree = ref true in
  let expect b = if not b then agree := false in
  List.iter
    (fun op ->
      match op with
      | Tick d -> clock := !clock + d
      | Submit { core; line; flush; dirty; dt } ->
        let now = at dt in
        let kind = if flush then Message.Wb_flush else Message.Wb_clean in
        let line_data = if dirty then Some (Array.make 8 0) else None in
        if params.Params.coalescing then filter models.(core) ~now;
        (match
           FU.submit units.(core) ~addr:(line * 64) ~kind ~hit:true ~dirty ~line_data
             ~last_line_change:min_int ~now
         with
         | FU.Accepted p -> models.(core).live <- models.(core).live @ [ p ]
         | FU.Coalesced { ack_at; _ } ->
           (* The partner is a live request of the same line. *)
           expect
             (List.exists
                (fun p -> p.FU.entry.FQ.addr = line * 64 && p.FU.ack_at = ack_at)
                models.(core).live))
      | Outstanding { core; dt } ->
        let now = at dt in
        filter models.(core) ~now;
        expect (FU.outstanding units.(core) ~now = List.length models.(core).live)
      | Find { core; line; dt } ->
        let now = at dt in
        filter models.(core) ~now;
        let expected =
          List.find_opt (fun p -> p.FU.entry.FQ.addr = line * 64)
            models.(core).live
        in
        expect
          (match FU.find_pending units.(core) ~addr:(line * 64) ~now, expected with
           | Some p, Some q -> p == q
           | None, None -> true
           | Some _, None | None, Some _ -> false)
      | Fence { core; dt } ->
        let now = at dt in
        filter models.(core) ~now;
        let expected = List.fold_left (fun acc p -> max acc p.FU.ack_at) now models.(core).live in
        expect (FU.fence_ready_at units.(core) ~now = expected))
    ops;
  (* Drain: a query past every ack leaves nothing. *)
  Array.iter (fun u -> expect (FU.outstanding u ~now:max_int = 0)) units;
  !agree

let params ~coalescing ~n_fshrs ~depth =
  { Params.boom_default with Params.coalescing; n_fshrs; flush_queue_depth = depth }

let prop_model =
  QCheck.Test.make ~name:"matches list-filter model" ~count:500 ops_arb
    (run_script (params ~coalescing:true ~n_fshrs:2 ~depth:4))

let prop_model_wide =
  QCheck.Test.make ~name:"matches model, wide, no coalescing" ~count:200
    ops_arb
    (run_script (params ~coalescing:false ~n_fshrs:8 ~depth:16))

(* Directed cases for the corners the script reaches rarely. *)

let submit fu ~addr ~now =
  match
    FU.submit fu ~addr ~kind:Message.Wb_clean ~hit:true ~dirty:false ~line_data:None
      ~last_line_change:min_int ~now
  with
  | FU.Accepted p -> p
  | FU.Coalesced _ -> Alcotest.fail "unexpected coalesce"

let test_retire_once () =
  let fu = create (params ~coalescing:false ~n_fshrs:4 ~depth:4) ~core:0 in
  (* Lines 2, 0 and 3, submitted in that order, ack in the order 0, 3, 2. *)
  let p2 = submit fu ~addr:(2 * 64) ~now:0 in
  let p0 = submit fu ~addr:0 ~now:0 in
  let p3 = submit fu ~addr:(3 * 64) ~now:0 in
  Alcotest.(check bool) "acks out of submission order" true
    (p0.FU.ack_at < p3.FU.ack_at && p3.FU.ack_at < p2.FU.ack_at);
  Alcotest.(check int) "all pending before the first ack" 3
    (FU.outstanding fu ~now:(p0.FU.ack_at - 1));
  Alcotest.(check int) "first ack retires one" 2 (FU.outstanding fu ~now:p0.FU.ack_at);
  Alcotest.(check int) "no double retirement" 2 (FU.outstanding fu ~now:p0.FU.ack_at);
  Alcotest.(check bool) "oldest survivor still found" true
    (match FU.find_pending fu ~addr:(2 * 64) ~now:p0.FU.ack_at with
     | Some p -> p == p2
     | None -> false);
  Alcotest.(check int) "middle one retires next" 1 (FU.outstanding fu ~now:p3.FU.ack_at);
  Alcotest.(check int) "the rest retire" 0 (FU.outstanding fu ~now:p2.FU.ack_at)

let test_late_query_keeps_retired () =
  (* A query at an earlier [now] than a previous one does not resurrect
     what the previous one retired, and still sees what it did not. *)
  let fu = create (params ~coalescing:false ~n_fshrs:4 ~depth:4) ~core:0 in
  let early = submit fu ~addr:0 ~now:0 in
  let late = submit fu ~addr:(2 * 64) ~now:0 in
  Alcotest.(check int) "retired at its ack" 1 (FU.outstanding fu ~now:early.FU.ack_at);
  Alcotest.(check int) "earlier now: still retired" 1 (FU.outstanding fu ~now:0);
  Alcotest.(check int) "fence waits for the survivor" late.FU.ack_at
    (FU.fence_ready_at fu ~now:0)

let test_far_ack () =
  let fu = create (params ~coalescing:false ~n_fshrs:4 ~depth:4) ~core:1 in
  let p = submit fu ~addr:(7 * 64) ~now:0 in
  Alcotest.(check bool) "ack far ahead" true (p.FU.ack_at >= 1 lsl 20);
  Alcotest.(check int) "pending one cycle before" 1 (FU.outstanding fu ~now:(p.FU.ack_at - 1));
  Alcotest.(check int) "retired at its cycle" 0 (FU.outstanding fu ~now:p.FU.ack_at)

let tests =
  ( "flush_retire",
    [
      Alcotest.test_case "retires each request once" `Quick test_retire_once;
      Alcotest.test_case "earlier now keeps retired requests" `Quick test_late_query_keeps_retired;
      Alcotest.test_case "far ack retires at its cycle" `Quick test_far_ack;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_model_wide;
    ] )
