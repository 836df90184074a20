(* The paper's microkernels (Fig 9, Fig 10, Fig 13, the §7.2 single line),
   driven through System/Thread on 32 KiB regions — exactly the modelled L1.
   Every simulated thread is a closed loop: it issues its next instruction
   only when the previous one has completed. *)

module S = Skipit_core.System
module T = Skipit_core.Thread
module Params = Skipit_cache.Params
module Rng = Skipit_sim.Rng

let line = 64
let region = 32 * 1024

type wb = Clean | Flush

type program =
  | Flush_sweep  (** Fig 9: dirty the share, then flush it and fence. *)
  | Reread of wb  (** Fig 10: write, writeback x10, fence, reread. *)
  | Redundant of { skip_it : bool }
      (** Fig 13: per line a store, one CBO.CLEAN and 10 redundant ones. *)
  | Single_line  (** §7.2: one dirty line, CBO.CLEAN, fence. *)

type case = { name : string; program : program; threads : int; banks : int }

let cases =
  let c name program threads banks = { name; program; threads; banks } in
  [
    c "fig9_flush_1t_b1" Flush_sweep 1 1;
    c "fig9_flush_8t_b1" Flush_sweep 8 1;
    c "fig9_flush_1t_b4" Flush_sweep 1 4;
    c "fig9_flush_8t_b4" Flush_sweep 8 4;
    c "fig10_clean_1t" (Reread Clean) 1 1;
    c "fig10_flush_1t" (Reread Flush) 1 1;
    c "fig10_clean_8t" (Reread Clean) 8 1;
    c "fig10_flush_8t" (Reread Flush) 8 1;
    c "fig13_naive_1t" (Redundant { skip_it = false }) 1 1;
    c "fig13_skipit_1t" (Redundant { skip_it = true }) 1 1;
    c "fig13_naive_8t" (Redundant { skip_it = false }) 8 1;
    c "fig13_skipit_8t" (Redundant { skip_it = true }) 8 1;
    c "single_line" Single_line 1 1;
  ]

type outcome = {
  case : case;
  elapsed : int;  (** Measured window: last end minus first start, cycles. *)
  total : int;  (** Whole simulation, set-up included, cycles. *)
  instrs : int;  (** Memory instructions issued (fences included). *)
  latencies : int array;
      (** Per instruction, issue to completion in cycles (closed loop, so
          the completion of one is the issue of the next). *)
  checks : int;
  failures : int;
  stats : (string * int) list;
}

(* A growable int buffer: one per case, filled by all of its threads. *)
type ints = { mutable a : int array; mutable n : int }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

(* Region placement and stored values come from the seed: the line offset
   moves the region across L2 sets and banks, as the paper's repetitions
   move theirs. *)
let placement ~seed idx =
  let rng = Rng.create ~seed:((seed * 131) + idx) in
  let offset = Rng.int rng 64 * line in
  let value = 1 + Rng.int rng 1_000_000 in
  offset, value

let run ~seed idx case =
  let skip_it = match case.program with Redundant { skip_it } -> skip_it | _ -> false in
  let params =
    Params.(with_l2_banks (with_skip_it (with_cores boom_default case.threads) skip_it) case.banks)
  in
  let sys = Span.with_ "core.system_create" (fun () -> S.create params) in
  let offset, value = placement ~seed idx in
  let size = match case.program with Single_line -> line | _ -> region in
  let base = Skipit_mem.Allocator.alloc (S.allocator sys) ~align:line (size + offset) + offset in
  let lines = size / line in
  let per = lines / case.threads in
  let lat = { a = Array.make 4096 0; n = 0 } in
  let checks = ref 0 and failures = ref 0 in
  let check ok =
    incr checks;
    if not ok then incr failures
  in
  let starts = Array.make case.threads max_int and ends = Array.make case.threads 0 in
  let task core =
    let lo = base + (core * per * line) in
    let addr i = lo + (i * line) in
    let expect i = value + (core * per) + i in
    let body () =
      let last = ref (T.now ()) in
      let op f =
        f ();
        let t = T.now () in
        push lat (t - !last);
        last := t
      in
      let wb kind a = op (fun () -> match kind with Clean -> T.clean a | Flush -> T.flush a) in
      let dirty () = for i = 0 to per - 1 do op (fun () -> T.store (addr i) (expect i)) done in
      let start () = starts.(core) <- !last in
      match case.program with
      | Flush_sweep | Single_line ->
        dirty ();
        op T.fence;
        start ();
        for i = 0 to per - 1 do
          wb (if case.program = Flush_sweep then Flush else Clean) (addr i)
        done;
        op T.fence;
        ends.(core) <- !last
      | Reread kind ->
        start ();
        dirty ();
        for _pass = 1 to 10 do
          for i = 0 to per - 1 do wb kind (addr i) done
        done;
        op T.fence;
        for i = 0 to per - 1 do
          op (fun () -> check (T.load (addr i) = expect i))
        done;
        ends.(core) <- !last
      | Redundant _ ->
        start ();
        for i = 0 to per - 1 do
          op (fun () -> T.store (addr i) (expect i));
          for _ = 0 to 10 do wb Clean (addr i) done
        done;
        op T.fence;
        ends.(core) <- !last
    in
    { T.core; body }
  in
  let total = Span.with_ "core.thread_run" (fun () -> T.run sys (List.init case.threads task)) in
  (* Durability: after each thread's final fence, a crash must leave every
     stored value in the NVMM. *)
  Span.with_ "check.durability" (fun () ->
    for core = 0 to case.threads - 1 do
      for i = 0 to per - 1 do
        let a = base + (((core * per) + i) * line) in
        check (S.persisted_word sys a = value + (core * per) + i)
      done
    done);
  {
    case;
    elapsed = Array.fold_left max 0 ends - Array.fold_left min max_int starts;
    total;
    instrs = lat.n;
    latencies = Array.sub lat.a 0 lat.n;
    checks = !checks;
    failures = !failures;
    stats = Span.with_ "core.stats_report" (fun () -> S.stats_report sys);
  }

let find outcomes name = List.find (fun o -> o.case.name = name) outcomes

(* Paper anchors (EXPERIMENTS.md).  The §7.2 single line is the
   calibration point of [Params.boom_default], so it is held out. *)
let anchors outcomes =
  let e name = float_of_int (find outcomes name).elapsed in
  let rel measured paper = 100. *. Float.abs (measured -. paper) /. paper in
  let in_band gain = if gain < 15. then rel gain 15. else if gain > 30. then rel gain 30. else 0. in
  let gain n s = 100. *. (e n -. e s) /. e n in
  [
    "fig9_1t_cycles", e "fig9_flush_1t_b1", rel (e "fig9_flush_1t_b1") 7460.;
    "fig9_8t_speedup", e "fig9_flush_1t_b1" /. e "fig9_flush_8t_b1",
      rel (e "fig9_flush_1t_b1" /. e "fig9_flush_8t_b1") 7.2;
    "fig10_ratio_1t", e "fig10_flush_1t" /. e "fig10_clean_1t",
      rel (e "fig10_flush_1t" /. e "fig10_clean_1t") 2.;
    "fig10_ratio_8t", e "fig10_flush_8t" /. e "fig10_clean_8t",
      rel (e "fig10_flush_8t" /. e "fig10_clean_8t") 2.;
    "fig13_gain_1t_pct", gain "fig13_naive_1t" "fig13_skipit_1t",
      in_band (gain "fig13_naive_1t" "fig13_skipit_1t");
    "fig13_gain_8t_pct", gain "fig13_naive_8t" "fig13_skipit_8t",
      in_band (gain "fig13_naive_8t" "fig13_skipit_8t");
  ]

let paper_err_pct outcomes =
  let a = anchors outcomes in
  List.fold_left (fun acc (_, _, err) -> acc +. err) 0. a /. float_of_int (List.length a)

let single_line_cycles outcomes = (find outcomes "single_line").elapsed
