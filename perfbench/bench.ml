(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--commit ID]

   With --trace 0 it runs the workload untraced, serially, in one domain,
   and prints the end-to-end metrics; with --trace 1 it runs every job
   untraced and then traced and prints the per-layer metrics.  The last stdout
   line is one JSON object {correct, attempted, failed, metrics}.  Any
   failed output check, or a simulated result that does not repeat
   bit-for-bit, makes the exit code 1. *)

let t_process = Span.now_ns ()
let secs ns = float_of_int ns /. 1e9

(* -- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper_kernels|serve_zipf|fleet_uniform_kill --seed N \
     --seconds S --trace 0|1 [--commit ID]";
  exit 2

let workload = ref ""
let seed = ref 11
let seconds = ref 10.
let traced = ref false
let commit = ref "unknown"

let () =
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> traced := t = "1"; go rest
    | "--commit" :: c :: rest -> commit := c; go rest
    | [] -> ()
    | _ -> usage ()
  in
  try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ()

(* -- metrics and checks ------------------------------------------------ *)

(* Every metric is either simulated (a pure function of the seed: it must
   repeat exactly) or host (measured wall time or allocation: noisy). *)
type cls = Sim | Host

let metrics : (string * float * string * cls) list ref = ref []
let emit name unit_ cls v = metrics := (name, v, unit_, cls) :: !metrics
let problems = ref []
let problem fmt =
  Printf.ksprintf (fun s -> if not (List.mem s !problems) then problems := s :: !problems) fmt

(* A workload is a fixed list of jobs.  Each job is a deterministic
   simulation whose simulated outputs ([key]) must repeat bit-for-bit. *)
type 'a work = {
  jobs : (traced:bool -> 'a) array;
  warmup : int;  (** Leading jobs run, untimed, in set-up. *)
  host_cls : int -> string option;
      (** The class of a job counted in the host throughput (jobs of one
          class do the same kind of work), or [None]. *)
  attempted : 'a -> int;  (** Instructions issued or requests offered. *)
  ops : 'a -> int;  (** Simulated operations: instructions or served requests. *)
  failures : 'a -> string list;
  key : 'a -> string;
}

let same_as w first r ~what =
  if w.key r <> w.key first then problem "simulated result differs between %s" what

let run_job w j ~traced =
  let r = w.jobs.(j) ~traced in
  List.iter (fun f -> problem "job %d: %s" j f) (w.failures r);
  r

(* Set-up is done five times and its median reported: building the job
   list and one untimed warm-up (the whole kernel set, or the first
   serving sub-run).  The first one is timed from process start.  Each is
   in calibrated seconds (Calib), against the calibrations that bracket
   it; the first calibration is not counted in the first set-up. *)
let setup build =
  let times = Array.make 5 0. and warm = ref None in
  let w = ref None in
  let t_cal = Span.now_ns () in
  let cal = ref (Calib.measure ()) in
  let cal_ns = Span.now_ns () - t_cal in
  for i = 0 to 4 do
    let t0 = if i = 0 then t_process + cal_ns else Span.now_ns () in
    let work = build () in
    let rs = Array.init work.warmup (fun j -> run_job work j ~traced:false) in
    (match !warm with
     | None -> warm := Some rs
     | Some first -> Array.iteri (fun j r -> same_as work first.(j) r ~what:"warm-ups") rs);
    let dt = secs (Span.now_ns () - t0) in
    let after = Calib.measure () in
    times.(i) <- Calib.calibrated dt ~before:!cal ~after;
    cal := after;
    w := Some work
  done;
  Option.get !w, Option.get !warm, Serving.median (Array.to_list times)

(* The jobs the warm-up ran must give the same results again. *)
let same_as_warmup w warm results =
  Array.iteri
    (fun j r -> same_as w r results.(j) ~what:"the warm-up and the timed repetition")
    warm

(* The untraced timed window: every job once in order (these results
   define the simulated metrics), then the host-timed jobs round again
   until [seconds] have passed, each repeat checked against the first
   result.

   The host is shared, and its speed for the simulator's code swings by
   up to 2x in phases (Calib).  So the reference kernel is timed at the start,
   after every job that ends [calib_every] or more after the last
   calibration, and at the end; each execution's time is calibrated
   against the two calibrations around it.  A job's host cost is then the
   median calibrated cost per operation over the executions of its class
   (the same kernel, or any operating-rate sub-run).  Returns the results,
   the operations and calibrated host seconds of the host-timed jobs, the
   minor words of each job's first execution, and how many executions
   ran. *)
let calib_every = 0.2

let timed w warm =
  let n = Array.length w.jobs in
  let hosted = List.filter (fun j -> w.host_cls j <> None) (List.init n Fun.id) |> Array.of_list in
  let first = Array.make n None and words = Array.make n 0. in
  (* Executions since the last calibration, and those calibrated. *)
  let pending = ref [] and execs = ref [] in
  let cal = ref (Calib.measure ()) and t_cal = ref (Span.now_ns ()) in
  let cals = ref [ !cal ] in
  let calibrate () =
    let after = Calib.measure () in
    cals := after :: !cals;
    List.iter
      (fun (j, dt) -> execs := (j, Calib.calibrated dt ~before:!cal ~after) :: !execs)
      !pending;
    pending := [];
    cal := after;
    t_cal := Span.now_ns ()
  in
  let t_start = Span.now_ns () in
  let i = ref 0 in
  while !i < n || secs (Span.now_ns () - t_start) < !seconds do
    let j = if !i < n then !i else hosted.((!i - n) mod Array.length hosted) in
    let w0 = Gc.minor_words () in
    let t0 = Span.now_ns () in
    let r = run_job w j ~traced:false in
    let dt = secs (Span.now_ns () - t0) in
    let dw = Gc.minor_words () -. w0 in
    pending := (j, dt) :: !pending;
    (match first.(j) with
     | None ->
       first.(j) <- Some r;
       words.(j) <- dw
     | Some f -> same_as w f r ~what:"repetitions");
    if secs (Span.now_ns () - !t_cal) >= calib_every then calibrate ();
    incr i
  done;
  if !pending <> [] then calibrate ();
  Printf.printf "# calibration: %d reference run(s), median %.4g s (nominal %.4g s)\n"
    (List.length !cals) (Serving.median !cals) Calib.nominal_s;
  let results = Array.map Option.get first in
  same_as_warmup w warm results;
  let costs = Hashtbl.create 16 in
  List.iter
    (fun (j, dt) ->
      match w.host_cls j with
      | None -> ()
      | Some c ->
        let per_op = dt /. float_of_int (max 1 (w.ops results.(j))) in
        Hashtbl.replace costs c (per_op :: Option.value ~default:[] (Hashtbl.find_opt costs c)))
    !execs;
  let ops = Array.fold_left (fun acc j -> acc + w.ops results.(j)) 0 hosted in
  let host_s =
    Array.fold_left
      (fun acc j ->
        let per_op = Serving.median (Hashtbl.find costs (Option.get (w.host_cls j))) in
        acc +. (float_of_int (w.ops results.(j)) *. per_op))
      0. hosted
  in
  results, float_of_int ops, host_s, words, !i

(* -- workloads --------------------------------------------------------- *)

module K = Kernels
module Sv = Serving

let kernels_work () =
  {
    jobs = Array.of_list (List.mapi (fun i c ~traced:_ -> K.run ~seed:!seed i c) K.cases);
    warmup = List.length K.cases;
    host_cls = (fun j -> Some (List.nth K.cases j).K.name);
    attempted = (fun o -> o.K.instrs);
    ops = (fun o -> o.K.instrs);
    failures =
      (fun o ->
        if o.K.failures = 0 then []
        else [ Printf.sprintf "%s: %d failed check(s)" o.K.case.K.name o.K.failures ]);
    key =
      (fun o ->
        Marshal.to_string
          (o.K.elapsed, o.K.total, o.K.instrs, o.K.latencies, o.K.checks, o.K.stats)
          []);
  }

(* The operating rate gets the most sub-runs: its p50 and p99.9 are the
   metrics.  The other rungs only decide slo_rate, and each sits well
   inside or well outside the SLO on every seed. *)
let serve_spec =
  {
    Sv.kind = Sv.Serve;
    ladder = [ 8., 3; 10., 3; 16., 36; 20., 2 ];
    operating = 16.;
    requests = 20_000;
  }

let fleet_spec =
  { Sv.kind = Sv.Fleet_kill; ladder = [ 4., 50; 8., 3; 12., 1 ]; operating = 4.; requests = 20_000 }

let serving_work spec () =
  let jobs =
    List.concat_map
      (fun (rate, subruns) ->
        List.init subruns (fun k ~traced ->
          Sv.run spec ~telemetry:traced ~seed:(Sv.subseed ~seed:!seed k) ~rate))
      spec.Sv.ladder
  in
  {
    jobs = Array.of_list jobs;
    warmup = 1;
    host_cls =
      (let rates = List.concat_map (fun (rate, k) -> List.init k (fun _ -> rate)) spec.Sv.ladder in
       fun j -> if List.nth rates j = spec.Sv.operating then Some "operating" else None);
    attempted = (fun o -> o.Sv.n);
    ops = (fun o -> o.Sv.served);
    failures = (fun o -> o.Sv.failed_checks);
    key = (fun o -> Marshal.to_string (Sv.fingerprint o) []);
  }

(* -- end-to-end metrics ------------------------------------------------ *)

let pct sorted p =
  let n = Array.length sorted in
  float_of_int sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let kernel_e2e outcomes =
  let os = Array.to_list outcomes in
  let lat = Array.concat (List.map (fun o -> o.K.latencies) os) in
  Array.sort compare lat;
  let instrs = List.fold_left (fun a o -> a + o.K.instrs) 0 os in
  let cycles = List.fold_left (fun a o -> a + o.K.total) 0 os in
  let p999 = pct lat 0.999 in
  let achieved = 1000. *. float_of_int instrs /. float_of_int cycles in
  emit "sim_p50_cycles" "cycles" Sim (pct lat 0.5);
  emit "sim_p999_cycles" "cycles" Sim p999;
  emit "sim_achieved_ops_per_kcycle" "ops/kcycle" Sim achieved;
  (* Closed loop: nothing is shed and offered equals achieved, so the
     highest rate meeting the SLO is the achieved rate when the p99.9
     latency meets it. *)
  emit "slo_rate_ops_per_kcycle" "ops/kcycle" Sim (if p999 <= Sv.slo_p999 then achieved else 0.);
  let passed = List.fold_left (fun a o -> if o.K.failures = 0 then a + o.K.instrs else a) 0 os in
  emit "ok_frac" "ratio" Sim (float_of_int passed /. float_of_int instrs);
  emit "sim_cycles" "cycles" Sim (float_of_int cycles);
  Printf.printf "# samples: %d instruction latencies (p99.9 has %d beyond it)\n" (Array.length lat)
    (Array.length lat / 1000);
  List.iter
    (fun (name, measured, err) ->
      Printf.printf "# anchor %s = %.4g (error %.2f %%)\n" name measured err)
    (K.anchors os);
  Printf.printf "# held out: single-line clean+fence = %d cycles (paper ~100)\n"
    (K.single_line_cycles os)

let serving_e2e spec outcomes =
  let os = Array.to_list outcomes in
  let op = Sv.rung os spec.Sv.operating in
  emit "sim_p50_cycles" "cycles" Sim op.Sv.r_p50;
  emit "sim_p999_cycles" "cycles" Sim op.Sv.r_p999;
  emit "sim_achieved_ops_per_kcycle" "ops/kcycle" Sim op.Sv.r_achieved;
  emit "slo_rate_ops_per_kcycle" "ops/kcycle" Sim (Sv.slo_rate spec os);
  emit "ok_frac" "ratio" Sim op.Sv.r_ok_frac;
  emit "sim_cycles" "cycles" Sim (float_of_int (Sv.sum (fun o -> o.Sv.elapsed) os));
  List.iter
    (fun (rate, subruns) ->
      let r = Sv.rung os rate in
      let served = Sv.sum (fun o -> o.Sv.served) (Sv.at_rate os rate) in
      Printf.printf
        "# rate %g: %d served in %d sub-runs, p50 %g p99.9 %g achieved %.4g shed %d ok %.6f%s\n"
        rate served subruns r.Sv.r_p50 r.Sv.r_p999 r.Sv.r_achieved r.Sv.r_shed r.Sv.r_ok_frac
        (if Sv.meets_slo r ~rate then " (meets SLO)" else ""))
    spec.Sv.ladder

(* The paper anchors are a property of the modelled hierarchy, which every
   workload runs on; the serving workloads compute them from one untimed
   run of the kernel set after their timed window. *)
let paper_err kernel_outcomes = emit "paper_err_pct" "%" Sim (K.paper_err_pct kernel_outcomes)

(* -- per-layer metrics (traced run) ------------------------------------ *)

(* Every per-layer metric is printed on every workload; a layer that the
   workload does not exercise, or whose counters the public API does not
   expose for it, reads 0 (README.md lists which workloads exercise
   which layer). *)
let layer_metrics =
  [
    "core.host_ns_per_instr", "ns/instr", Host;
    "core.words_per_instr", "words/instr", Host;
    "l1.hit_ratio", "ratio", Sim;
    "l1.fu.skip_ratio", "ratio", Sim;
    "l1.fu.fshr_busy_cycles", "cycles", Sim;
    "l1.fu.submitted", "count", Sim;
    "l2.hit_ratio", "ratio", Sim;
    "l2.probes", "count", Sim;
    "l2.dram_writebacks", "count", Sim;
    "l2.bank_wait_cycles", "cycles/req", Sim;
    "port.c_stalls", "count", Sim;
    "port.c_wait_cycles", "cycles", Sim;
    "dram.reads", "count", Sim;
    "dram.writes", "count", Sim;
    "serve.arrival.host_ns_per_req", "ns/req", Host;
    "serve.arrival.words_per_req", "words/req", Host;
    "serve.batcher.dedup_ratio", "ratio", Sim;
    "serve.batcher.epochs", "count", Sim;
    "serve.batcher.fences", "count", Sim;
    "serve.batcher.passthrough", "count", Sim;
    "serve.engine.host_ns_per_req", "ns/req", Host;
    "serve.engine.words_per_req", "words/req", Host;
  ]
  @ List.map
      (fun s -> "serve.engine.attr." ^ Skipit_obs.Attribution.stage_name s, "cycles/req", Sim)
      Skipit_obs.Attribution.all_stages
  @ [
      "fleet.ring.host_ns_per_lookup", "ns/lookup", Host;
      "fleet.host_ns_per_req", "ns/req", Host;
      "fleet.words_per_req", "words/req", Host;
      "fleet.failovers", "count", Sim;
      "fleet.retries", "count", Sim;
      "fleet.hints", "count", Sim;
      "fleet.recovery_cycles", "cycles", Sim;
      "fleet.partial", "count", Sim;
      "fleet.shard_imbalance", "ratio", Sim;
      "obs.trace_overhead_pct", "%", Host;
      "par.pool_efficiency", "x", Host;
      "gc.minor_collections", "count/rep", Host;
      "gc.major_collections", "count/rep", Host;
    ]

let layer = Hashtbl.create 64
let set name v = Hashtbl.replace layer name v
let ratio a b = if b = 0. then 0. else a /. b
let traced_passes = ref 1.

(* Host time and minor words of the spans named [name], per traced pass. *)
let per_pass name =
  let ns, words = Span.total name in
  ns /. !traced_passes, words /. !traced_passes

(* Sum of the [System.stats_report] counters of one component kind across
   its instances: [stat stats "l1" "load_hits"] adds every
   "l1.<core>.load_hits". *)
let stat outcomes comp name =
  let parts_match key =
    match String.split_on_char '.' key with
    | [ c; _; n ] -> c = comp && n = name
    | [ "port"; c; _; n ] -> "port." ^ c = comp && n = name
    | [ c; n ] -> c = comp && n = name && (comp = "l2" || comp = "dram")
    | _ -> false
  in
  Array.fold_left
    (fun acc o ->
      List.fold_left
        (fun acc (k, v) -> if parts_match k then acc +. float_of_int v else acc)
        acc o.K.stats)
    0. outcomes

let kernel_layers outcomes =
  let instrs = float_of_int (Array.fold_left (fun a o -> a + o.K.instrs) 0 outcomes) in
  let ns, words = per_pass "core.thread_run" in
  set "core.host_ns_per_instr" (ns /. instrs);
  set "core.words_per_instr" (words /. instrs);
  let s = stat outcomes in
  let hits = s "l1" "load_hits" +. s "l1" "store_hits" in
  set "l1.hit_ratio" (ratio hits (hits +. s "l1" "load_misses" +. s "l1" "store_misses"));
  let dropped = s "fu" "skip_dropped" in
  set "l1.fu.skip_ratio" (ratio dropped (dropped +. s "fu" "submitted"));
  set "l1.fu.fshr_busy_cycles" (s "fu" "fshr_busy_cycles");
  set "l1.fu.submitted" (s "fu" "submitted");
  set "l2.hit_ratio" (ratio (s "l2" "hits") (s "l2" "hits" +. s "l2" "misses"));
  set "l2.probes" (s "l2" "probes");
  set "l2.dram_writebacks" (s "l2" "dram_writebacks");
  set "port.c_stalls" (s "port.l1" "c_stalls");
  set "port.c_wait_cycles" (s "port.l1" "c_wait_cycles");
  set "dram.reads" (s "dram" "reads");
  set "dram.writes" (s "dram" "writes")

(* Host cost of one call, repeated until it has run for at least 0.2 s;
   returns ns and minor words per unit of [units]. *)
let per_unit name ~units f =
  let ns = ref 0. and words = ref 0. and reps = ref 0 in
  Span.on := true;
  while !reps = 0 || !ns < 2e8 do
    Span.with_ name f;
    incr reps;
    let t, w = Span.total name in
    ns := t;
    words := w
  done;
  Span.on := false;
  let n = float_of_int (!reps * units) in
  !ns /. n, !words /. n

let serving_layers spec outcomes =
  let os = Array.to_list outcomes in
  let op = Sv.at_rate os spec.Sv.operating in
  let total name = List.fold_left (fun a o -> a +. List.assoc name o.Sv.counts) 0. op in
  let served = float_of_int (Sv.sum (fun o -> o.Sv.served) os) in
  let op_served = float_of_int (Sv.sum (fun o -> o.Sv.served) op) in
  let ns_per_req, words_per_req =
    per_unit "serve.arrival.schedule" ~units:spec.Sv.requests (fun () ->
      ignore (Sv.schedule spec ~seed:(Sv.subseed ~seed:!seed 0) ~rate:spec.Sv.operating))
  in
  set "serve.arrival.host_ns_per_req" ns_per_req;
  set "serve.arrival.words_per_req" words_per_req;
  set "serve.batcher.epochs" (total "epochs");
  match spec.Sv.kind with
  | Sv.Serve ->
    let ns, words = per_pass "serve.engine.run" in
    set "serve.engine.host_ns_per_req" (ns /. served);
    set "serve.engine.words_per_req" (words /. served);
    let dropped = total "skip_dropped" in
    set "l1.fu.skip_ratio" (ratio dropped (dropped +. total "wb_submitted"));
    set "l1.fu.submitted" (total "wb_submitted");
    set "serve.batcher.dedup_ratio" (ratio (total "flushes") (total "deferred"));
    set "serve.batcher.fences" (total "fences");
    set "serve.batcher.passthrough" (total "passthrough");
    List.iter
      (fun s ->
        let stage = Skipit_obs.Attribution.stage_name s in
        let cyc =
          List.fold_left
            (fun a o -> a +. (float_of_int o.Sv.served *. List.assoc stage o.Sv.attr))
            0. op
        in
        set ("serve.engine.attr." ^ stage) (cyc /. op_served))
      Skipit_obs.Attribution.all_stages;
    set "l2.bank_wait_cycles" (Hashtbl.find layer "serve.engine.attr.bank_wait");
    (* Pool speed-up: the ladder as one Engine.sweep, serially and on a
       width-2 pool. *)
    let cfg =
      Sv.serve_config ~seed:(Sv.subseed ~seed:!seed 0) ~requests:spec.Sv.requests ~telemetry:false
    in
    let sweep jobs =
      let pool = Skipit_par.Pool.create ~jobs () in
      let t0 = Span.now_ns () in
      let rates = List.map fst spec.Sv.ladder in
      let points = Skipit_serve.Engine.sweep ~pool cfg ~rates in
      let dt = secs (Span.now_ns () - t0) in
      Skipit_par.Pool.shutdown pool;
      points, dt, Skipit_par.Pool.width pool
    in
    let serial, t1, _ = sweep 1 in
    let pooled, t2, width = sweep 2 in
    if compare serial pooled <> 0 then
      problem "Engine.sweep differs between pool widths 1 and %d" width;
    Printf.printf "# pool: width %d for par.pool_efficiency\n" width;
    set "par.pool_efficiency" (t1 /. t2)
  | Sv.Fleet_kill ->
    let ns, words = per_pass "fleet.run" in
    set "fleet.host_ns_per_req" (ns /. served);
    set "fleet.words_per_req" (words /. served);
    List.iter
      (fun c -> set ("fleet." ^ c) (total c))
      [ "failovers"; "retries"; "hints"; "recovery_cycles"; "partial" ];
    set "fleet.shard_imbalance"
      (Sv.median (List.map (fun o -> List.assoc "shard_imbalance" o.Sv.counts) op));
    let ring, k = Sv.ring ~seed:(Sv.subseed ~seed:!seed 0) in
    let sched = Sv.schedule spec ~seed:(Sv.subseed ~seed:!seed 0) ~rate:spec.Sv.operating in
    let ns, _ =
      per_unit "fleet.ring.replicas" ~units:(Array.length sched) (fun () ->
        Array.iter
          (fun r ->
            let key = r.Skipit_serve.Arrival.key in
            ignore (Sys.opaque_identity (Skipit_fleet.Ring.replicas ring ~key ~k)))
          sched)
    in
    set "fleet.ring.host_ns_per_lookup" ns

(* The traced run: passes over the jobs until [seconds] have passed (at
   least one), each job run untraced and then traced back to back, so
   both see the same machine.  Simulated outputs must agree between every
   execution; the tracing overhead is the median over executions of the
   traced-to-untraced time ratio, minus 1. *)
let traced_run w warm =
  let n = Array.length w.jobs in
  let reference = Array.make n None and traced_results = Array.make n None in
  let ratios = ref [] and passes = ref 0 and minor = ref 0 and major = ref 0 in
  let t_start = Span.now_ns () in
  let timed_run j ~traced =
    Span.on := traced;
    let t0 = Span.now_ns () in
    let r =
      if traced then Span.with_ "job" (fun () -> run_job w j ~traced) else run_job w j ~traced
    in
    r, float_of_int (Span.now_ns () - t0)
  in
  while !passes = 0 || secs (Span.now_ns () - t_start) < !seconds do
    Span.rep := !passes;
    for j = 0 to n - 1 do
      let g0 = Gc.quick_stat () in
      let u, du = timed_run j ~traced:false in
      let g1 = Gc.quick_stat () in
      minor := !minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
      major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
      let t, dt = timed_run j ~traced:true in
      ratios := (dt /. du) :: !ratios;
      (match reference.(j) with
       | None -> reference.(j) <- Some u
       | Some r0 -> same_as w r0 u ~what:"repetitions");
      same_as w u t ~what:"traced and untraced executions";
      if Option.is_none traced_results.(j) then traced_results.(j) <- Some t
    done;
    incr passes
  done;
  Span.on := false;
  same_as_warmup w warm (Array.map Option.get reference);
  traced_passes := float_of_int !passes;
  set "obs.trace_overhead_pct" (100. *. (Serving.median !ratios -. 1.));
  set "gc.minor_collections" (float_of_int !minor /. float_of_int !passes);
  set "gc.major_collections" (float_of_int !major /. float_of_int !passes);
  Printf.printf "# traced run: %d pass(es), each job untraced then traced\n" !passes;
  Array.map Option.get traced_results

(* -- output ------------------------------------------------------------ *)

let json_float v = Printf.sprintf "%.17g" v

let fingerprint () =
  Printf.printf
    "# host: {\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"pool_width\": 1, \"workload\": %S, \
     \"seed\": %d, \"seconds\": %g, \"trace\": %b}\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit !workload !seed !seconds !traced

(* Prints every metric, then the result object as the last line, and
   exits: 0 when every check passed, 1 otherwise. *)
let finish w results =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let attempted = sum w.attempted in
  let failed = sum (fun r -> if w.failures r = [] then 0 else w.attempted r) in
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, u, c) ->
      if not (Float.is_finite v) then problem "metric %s is not finite" name;
      Printf.printf "%-36s %.6g %s (%s)\n" name v u
        (match c with Sim -> "simulated, exact" | Host -> "host, noisy"))
    ms;
  List.iter (fun p -> Printf.printf "# FAILED: %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, u, _) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then json_float v else "0")
             u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted (if correct then failed else max 1 failed) body;
  exit (if correct then 0 else 1)

let measure (type a) (build : unit -> a work) ~(e2e : a array -> unit) ~(layers : a array -> unit)
    ~paper =
  fingerprint ();
  let w, warm, setup_s = setup build in
  if not !traced then begin
    let results, host_ops, host_s, words, execs = timed w warm in
    let ops = Array.fold_left (fun acc r -> acc + w.ops r) 0 results in
    Printf.printf "# timed window: %d job execution(s) for %d job(s)\n" execs
      (Array.length results);
    emit "setup_s" "s" Host setup_s;
    emit "sim_ops_per_host_s" "ops/s" Host (host_ops /. host_s);
    emit "alloc_words_per_op" "words/op" Host
      (Array.fold_left ( +. ) 0. words /. float_of_int ops);
    emit "peak_heap_mb" "MiB" Host
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    e2e results;
    paper results;
    finish w results
  end
  else begin
    let results = traced_run w warm in
    layers results;
    List.iter
      (fun (name, u, c) -> emit name u c (Option.value ~default:0. (Hashtbl.find_opt layer name)))
      layer_metrics;
    let dir = Filename.concat ".bench_build" "spans" in
    List.iter (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ()) [ ".bench_build"; dir ];
    let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed) in
    Span.write path;
    Printf.printf "# spans: %d recorded (%d dropped), written to %s\n" !Span.count !Span.dropped
      path;
    finish w results
  end

let () =
  let kernels_once () = List.mapi (fun i c -> K.run ~seed:!seed i c) K.cases in
  match !workload with
  | "paper_kernels" ->
    measure kernels_work ~e2e:kernel_e2e ~layers:kernel_layers ~paper:(fun rs ->
      paper_err (Array.to_list rs))
  | "serve_zipf" ->
    measure (serving_work serve_spec) ~e2e:(serving_e2e serve_spec)
      ~layers:(serving_layers serve_spec) ~paper:(fun _ -> paper_err (kernels_once ()))
  | "fleet_uniform_kill" ->
    measure (serving_work fleet_spec) ~e2e:(serving_e2e fleet_spec)
      ~layers:(serving_layers fleet_spec) ~paper:(fun _ -> paper_err (kernels_once ()))
  | _ -> usage ()
