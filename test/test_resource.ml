module Resource = Skipit_sim.Resource

let test_single_unit_serializes () =
  let r = Resource.create "r" in
  let s1, f1 = Resource.acquire r ~now:0 ~busy:10 in
  let s2, f2 = Resource.acquire r ~now:0 ~busy:10 in
  Alcotest.(check (pair int int)) "first immediate" (0, 10) (s1, f1);
  Alcotest.(check (pair int int)) "second queued" (10, 20) (s2, f2)

let test_parallel_units () =
  let r = Resource.create ~count:3 "r" in
  let starts = List.init 4 (fun _ -> fst (Resource.acquire r ~now:0 ~busy:10)) in
  Alcotest.(check (list int)) "three run now, fourth waits" [ 0; 0; 0; 10 ] starts

let test_idle_time_not_billed () =
  let r = Resource.create "r" in
  let _ = Resource.acquire r ~now:0 ~busy:5 in
  let s, f = Resource.acquire r ~now:100 ~busy:5 in
  Alcotest.(check (pair int int)) "starts at request time when idle" (100, 105) (s, f)

let test_all_free_at () =
  let r = Resource.create ~count:2 "r" in
  ignore (Resource.acquire r ~now:0 ~busy:10);
  ignore (Resource.acquire r ~now:0 ~busy:30);
  Alcotest.(check int) "all free when slowest done" 30 (Resource.all_free_at r);
  Alcotest.(check int) "earliest free" 10 (Resource.earliest_free r);
  Alcotest.(check int) "busy at t=5" 2 (Resource.busy_at r 5);
  Alcotest.(check int) "busy at t=15" 1 (Resource.busy_at r 15)

(* A transaction-long occupancy whose end is known only after the start:
   pick a unit, start on it, commit the finish. *)
let test_pick_commit () =
  let r = Resource.create ~count:2 "r" in
  let i = Resource.pick r in
  let s = Resource.start_on r i ~now:3 in
  Resource.commit r i ~start:s ~finish:(s + 7);
  Alcotest.(check (pair int int)) "first unit from now" (0, 3) (i, s);
  let j = Resource.pick r in
  Alcotest.(check int) "other unit is earliest free" 1 j;
  Resource.commit r j ~start:(Resource.start_on r j ~now:0) ~finish:12;
  let k = Resource.pick r in
  Alcotest.(check (pair int int)) "queued behind the earlier finish" (0, 10)
    (k, Resource.start_on r k ~now:0);
  Alcotest.check_raises "finish before start" (Invalid_argument "Resource.commit: finish < start")
    (fun () -> Resource.commit r k ~start:10 ~finish:9);
  Alcotest.(check int) "busy cycles" 19 (Resource.total_busy_cycles r)

let test_utilization () =
  let r = Resource.create "r" in
  ignore (Resource.acquire r ~now:0 ~busy:4);
  ignore (Resource.acquire r ~now:0 ~busy:6);
  Alcotest.(check int) "busy cycles accumulate" 10 (Resource.total_busy_cycles r);
  Resource.reset r;
  Alcotest.(check int) "reset" 0 (Resource.total_busy_cycles r)

let test_banked_routing () =
  let b = Resource.Banked.create ~banks:4 "banks" in
  (* Same line → same bank → serialize; different lines → parallel. *)
  let _, f1 = Resource.Banked.acquire b ~addr:0 ~line_bytes:64 ~now:0 ~busy:10 in
  let s2, _ = Resource.Banked.acquire b ~addr:0 ~line_bytes:64 ~now:0 ~busy:10 in
  let s3, _ = Resource.Banked.acquire b ~addr:64 ~line_bytes:64 ~now:0 ~busy:10 in
  Alcotest.(check int) "same bank serializes" f1 s2;
  Alcotest.(check int) "other bank parallel" 0 s3;
  (* Bank index wraps. *)
  let bank0 = Resource.Banked.bank_of b ~addr:0 ~line_bytes:64 in
  let bank4 = Resource.Banked.bank_of b ~addr:(4 * 64) ~line_bytes:64 in
  Alcotest.(check string) "wraps modulo banks" (Resource.name bank0) (Resource.name bank4)

(* Naive reference model for the cached-argmin implementation: a plain
   array of per-unit free times, scanned in full on every acquire with the
   same first-lowest-index tie-break.  The cached version must agree on
   every start/finish pair and on the derived queries after every step. *)
module Naive = struct
  type t = int array

  let create count : t = Array.make count 0

  let acquire (t : t) ~now ~busy =
    let best = ref 0 in
    for i = 1 to Array.length t - 1 do
      if t.(i) < t.(!best) then best := i
    done;
    let start = max now t.(!best) in
    let finish = start + busy in
    t.(!best) <- finish;
    start, finish

  let earliest_free (t : t) = Array.fold_left min t.(0) t
  let all_free_at (t : t) = Array.fold_left max t.(0) t

  let busy_at (t : t) at =
    Array.fold_left (fun acc f -> if f > at then acc + 1 else acc) 0 t
end

let prop_matches_naive_scan =
  QCheck.Test.make ~name:"cached argmin agrees with naive scan" ~count:500
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (QCheck.Gen.int_range 1 60)
           (pair (int_range 0 50) (int_range 0 25))))
  @@ fun (count, reqs) ->
  let r = Resource.create ~count "r" in
  let m = Naive.create count in
  (* Requests arrive with non-decreasing [now], as in the simulator. *)
  let _, ok =
    List.fold_left
      (fun (now, ok) (dt, busy) ->
        let now = now + dt in
        let s, f = Resource.acquire r ~now ~busy in
        let s', f' = Naive.acquire m ~now ~busy in
        ( now,
          ok && s = s' && f = f'
          && Resource.earliest_free r = Naive.earliest_free m
          && Resource.all_free_at r = Naive.all_free_at m
          && Resource.busy_at r now = Naive.busy_at m now ))
      (0, true) reqs
  in
  ok

let prop_start_never_before_now =
  QCheck.Test.make ~name:"start >= now always" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair (int_range 0 100) (int_range 0 20)))
  @@ fun reqs ->
  let r = Skipit_sim.Resource.create ~count:2 "r" in
  List.for_all
    (fun (now, busy) ->
      let s, f = Resource.acquire r ~now ~busy in
      s >= now && f = s + busy)
    reqs

let tests =
  ( "resource",
    [
      Alcotest.test_case "single unit serializes" `Quick test_single_unit_serializes;
      Alcotest.test_case "parallel units" `Quick test_parallel_units;
      Alcotest.test_case "idle time not billed" `Quick test_idle_time_not_billed;
      Alcotest.test_case "all_free_at/busy_at" `Quick test_all_free_at;
      Alcotest.test_case "pick/commit" `Quick test_pick_commit;
      Alcotest.test_case "utilization accounting" `Quick test_utilization;
      Alcotest.test_case "banked routing" `Quick test_banked_routing;
      QCheck_alcotest.to_alcotest prop_start_never_before_now;
      QCheck_alcotest.to_alcotest prop_matches_naive_scan;
    ] )
