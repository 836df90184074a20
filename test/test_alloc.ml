(* Allocation pins for the per-instruction paths through the hierarchy,
   driven through [System.exec] with a preallocated instruction.  They
   matter most in the release profile, where cross-module inlining lets
   the compiler keep small helpers and their results unboxed, and hold in
   both profiles (dune's dev profile compiles with -opaque); each message
   names the profile it was built under.  Each comment gives the value
   measured, in both profiles, before counters, sink guards, rings and the
   per-fiber handler were made allocation-free. *)

module S = Skipit_core.System
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Instr = Skipit_cpu.Instr
module H = Skipit_sim.Stats.Registry.Handle

let reps = 10_000

(* Minor words per call of [f] over [reps] calls, after a warm-up that
   binds lazily registered counters. *)
let words_per_call f =
  for _ = 1 to 100 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let check name ~bound words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f words/call <= %.0f (%s profile)" name words bound
       Build_profile.name)
    true (words <= bound)

let system ?(skip_it = false) () =
  S.create Params.(with_skip_it (with_cores boom_default 1) skip_it)

(* Before: 0 words (also pinned at the cache level in test_dcache). *)
let test_load_hit () =
  let sys = system () in
  let instr = Instr.Load { addr = 0x1000 } in
  check "L1 load hit" ~bound:0. (words_per_call (fun () -> ignore (S.exec sys ~core:0 instr)))

(* Before: 30 words. *)
let test_async_store_hit () =
  let sys = system () in
  let instr = Instr.Store { addr = 0x1000; value = 7 } in
  check "async store hit" ~bound:4.
    (words_per_call (fun () -> ignore (S.exec sys ~core:0 instr)))

(* Before: 19 words. *)
let test_idle_fence () =
  let sys = system () in
  S.store sys ~core:0 0x1000 1;
  check "fence with nothing pending" ~bound:0.
    (words_per_call (fun () -> ignore (S.exec sys ~core:0 Instr.Fence)))

(* Before: 6 words.  What remains is the [Dcache.cbo_result] record. *)
let test_skip_drop () =
  let sys = system ~skip_it:true () in
  S.store sys ~core:0 0x1000 1;
  S.clean sys ~core:0 0x1000;
  S.fence sys ~core:0;
  let instr = Instr.Cbo_clean { addr = 0x1000 } in
  check "skip-bit CBO.CLEAN drop" ~bound:4.
    (words_per_call (fun () -> ignore (S.exec sys ~core:0 instr)))

(* Before: 18 words per instruction.  What remains is the [Delay] itself,
   the effect and the continuation [perform] captures, and the fiber's
   [Blocked] status. *)
let test_thread_delay () =
  let sys = system () in
  let n = 100_000 in
  let body () =
    for _ = 1 to n do
      T.delay 1
    done
  in
  let before = Gc.minor_words () in
  ignore (T.run sys [ { T.core = 0; body } ]);
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check "Thread.delay" ~bound:10. words

let test_handle_incr () =
  let reg = Skipit_sim.Stats.Registry.create () in
  let h = H.create reg "events" in
  check "counter-handle increment" ~bound:0.
    (words_per_call (fun () -> H.incr h));
  Alcotest.(check int) "every increment counted" (reps + 100)
    (Skipit_sim.Stats.Registry.get reg "events")

let tests =
  ( "alloc",
    [
      Alcotest.test_case "L1 load hit" `Quick test_load_hit;
      Alcotest.test_case "async store hit" `Quick test_async_store_hit;
      Alcotest.test_case "fence with nothing pending" `Quick test_idle_fence;
      Alcotest.test_case "skip-bit CBO.CLEAN drop" `Quick test_skip_drop;
      Alcotest.test_case "Thread.delay per instruction" `Quick test_thread_delay;
      Alcotest.test_case "counter-handle increment" `Quick test_handle_incr;
    ] )
