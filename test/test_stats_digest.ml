(* Counter pins: the MD5 of the full sorted [System.stats_report] (every
   key and every value) for the paper's microkernels and a coherence-heavy
   mix.  A counter that appears before it is first incremented, one that
   disappears, or any value drift changes the digest.  The constants were
   generated on the commit before counters were bound through
   [Stats.Registry.Handle], and must not change with it. *)

module S = Skipit_core.System
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Rng = Skipit_sim.Rng

let line = 64
let region = 32 * 1024

let digest sys =
  S.stats_report sys
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d\n" k v)
  |> String.concat ""
  |> Digest.string |> Digest.to_hex

let system ~threads ~banks ~skip_it =
  S.create
    Params.(with_l2_banks (with_skip_it (with_cores boom_default threads) skip_it) banks)

(* Fig 9: each thread dirties its share of a 32 KiB region, fences, then
   flushes the share and fences again. *)
let fig9 ~threads ~banks =
  let sys = system ~threads ~banks ~skip_it:false in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line region in
  let per = region / line / threads in
  let task core =
    let addr i = base + (((core * per) + i) * line) in
    let body () =
      for i = 0 to per - 1 do T.store (addr i) (i + 1) done;
      T.fence ();
      for i = 0 to per - 1 do T.flush (addr i) done;
      T.fence ()
    in
    { T.core; body }
  in
  ignore (T.run sys (List.init threads task));
  sys

(* Fig 13: per line one store, one CBO.CLEAN and ten redundant ones. *)
let fig13 ~threads ~skip_it =
  let sys = system ~threads ~banks:1 ~skip_it in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line region in
  let per = region / line / threads in
  let task core =
    let addr i = base + (((core * per) + i) * line) in
    let body () =
      for i = 0 to per - 1 do
        T.store (addr i) (i + 1);
        for _ = 0 to 10 do T.clean (addr i) done
      done;
      T.fence ()
    in
    { T.core; body }
  in
  ignore (T.run sys (List.init threads task));
  sys

(* Four cores load, store and CAS over a 96 KiB region (three times the
   L1), so lines miss, move between cores and are evicted dirty. *)
let mix () =
  let threads = 4 in
  let sys = system ~threads ~banks:1 ~skip_it:true in
  let size = 3 * region in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line size in
  let words = size / 8 in
  let task core =
    let rng = Rng.create ~seed:(100 + core) in
    let body () =
      for _ = 1 to 1500 do
        let a = base + (8 * Rng.int rng words) in
        match Rng.int rng 8 with
        | 0 | 1 | 2 -> ignore (T.load a)
        | 3 | 4 | 5 -> T.store a (Rng.int rng 1000)
        | 6 -> ignore (T.cas a ~expected:(T.load a) ~desired:(Rng.int rng 1000))
        | _ -> if Rng.bool rng then T.clean a else T.fence ()
      done;
      T.fence ()
    in
    { T.core; body }
  in
  ignore (T.run sys (List.init threads task));
  sys

let pins =
  [
    "fig9 1t l2_banks=1", (fun () -> fig9 ~threads:1 ~banks:1), "a4f7b9ab4df8c289260b61153fbfec34";
    "fig9 8t l2_banks=1", (fun () -> fig9 ~threads:8 ~banks:1), "ba1e9a3eb2fd716ecb3ed556432ef15c";
    "fig9 1t l2_banks=4", (fun () -> fig9 ~threads:1 ~banks:4), "c340e7f27c898e4b6bc5011c398305c8";
    "fig9 8t l2_banks=4", (fun () -> fig9 ~threads:8 ~banks:4), "794b7716f292a7d351d88312daf47391";
    "fig13 naive 8t", (fun () -> fig13 ~threads:8 ~skip_it:false), "9451b21b881f4afbe833d984135683b9";
    "fig13 skip-it 8t", (fun () -> fig13 ~threads:8 ~skip_it:true), "58fc71beaeb83dfbe8302d9bc7c33eab";
    "4-core load/store/cas mix", mix, "bbe02fb4c7dfd08c055d8d287f319614";
  ]

let tests =
  ( "stats_digest",
    List.map
      (fun (name, run, expected) ->
        Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) (name ^ ": stats_report md5") expected (digest (run ()))))
      pins )
