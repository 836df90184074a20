(* The two serving workloads: the engine on a skewed hot set, and the fleet
   on uniform cold keys with a shard kill.  Both are open loop in simulated
   time: arrivals are precomputed from the seed, and latency runs from the
   intended arrival to persist-complete. *)

module Engine = Skipit_serve.Engine
module Arrival = Skipit_serve.Arrival
module Workload = Skipit_serve.Workload
module Fleet = Skipit_fleet.Fleet
module Ring = Skipit_fleet.Ring

type kind = Serve | Fleet_kill

(* The serving SLO: p99.9 within [slo_p999] cycles of the intended
   arrival, and achieved at least 98 % of offered.  A shed request misses
   the limit, so at most 0.1 % may be shed: over the 1 000 000 requests a
   fleet rung pools, one request shed after a kill must not fail a rate
   whose tail is otherwise far inside the limit. *)
let slo_p999 = 4000.
let slo_shed = 0.001
let slo_achieved = 0.98

type spec = {
  kind : kind;
  ladder : (float * int) list;
      (** Offered loads in ops per 1000 cycles, each with the number of
          independent sub-runs it is simulated on. *)
  operating : float;  (** The rate the latency metrics are read at. *)
  requests : int;  (** Per sub-run; the cold start is in every one. *)
}

(* Each ladder rate is run on several seeds derived from the benchmark
   seed, so every metric is a statistic over that many independent cold
   starts and schedules rather than over one. *)
let subseed ~seed k = (seed * 1000) + k

let serve_config ~seed ~requests ~telemetry =
  {
    Engine.default with
    Engine.workload =
      { Workload.keys = Workload.Zipf { theta_milli = 990 }; churn = Some 8000 };
    update_pct = 20;
    clients = 16;
    batch = 8;
    depth = 64;
    requests;
    seed;
    telemetry;
  }

let fleet_config ~seed ~requests =
  {
    Fleet.default with
    Fleet.shards = 4;
    replicas = 2;
    clients = 200_000;
    workload = Workload.default;
    update_pct = 50;
    fanout_pct = 10;
    faults = Fleet.Seeded 1;
    requests;
    seed;
  }

(* What one sub-run leaves behind: the simulated outputs (compared
   bit-for-bit between repetitions and between traced and untraced runs),
   the correctness checks, and the per-layer counts. *)
type outcome = {
  rate : float;
  n : int;
  served : int;
  shed : int;
  partial : int;
  p50 : float;
  p999 : float;
  achieved : float;
  elapsed : int;
  failed_checks : string list;
  counts : (string * float) list;  (** Per-layer simulated counts. *)
  attr : (string * float) list;
      (** Critical-path cycles per served request by stage; empty unless
          the engine ran with telemetry. *)
}

(* The part of an outcome that must repeat exactly. *)
let fingerprint o =
  (o.rate, o.n, o.served, o.shed, o.partial, o.p50, o.p999, o.achieved, o.elapsed, o.counts)

let lat_or_nan f = function Some s -> f s | None -> Float.nan

let run_serve ~requests ~telemetry ~seed ~rate =
  let cfg = serve_config ~seed ~requests ~telemetry in
  let p = Span.with_ "serve.engine.run" (fun () -> Engine.run cfg ~rate) in
  let check ok msg acc = if ok then acc else msg :: acc in
  let failed_checks =
    []
    |> check (p.Engine.served + p.Engine.shed = p.Engine.n) "served + shed <> n"
    |> check (p.Engine.leaked = 0) "leaked admission slots"
    |> check p.Engine.attr_conserved "attribution not conserved"
  in
  let per_req x =
    if p.Engine.served = 0 then 0. else float_of_int x /. float_of_int p.Engine.served
  in
  let counts =
    [
      "skip_dropped", float_of_int p.Engine.skip_dropped;
      "wb_submitted", float_of_int p.Engine.wb_submitted;
      "flushes", float_of_int p.Engine.flushes;
      "deferred", float_of_int p.Engine.deferred;
      "epochs", float_of_int p.Engine.epochs;
      "fences", float_of_int p.Engine.fences;
      "passthrough", float_of_int p.Engine.passthrough;
    ]
  in
  {
    rate;
    n = p.Engine.n;
    served = p.Engine.served;
    shed = p.Engine.shed;
    partial = 0;
    p50 = lat_or_nan (fun s -> s.Skipit_obs.Latency.p50) p.Engine.latency;
    p999 = lat_or_nan (fun s -> s.Skipit_obs.Latency.p999) p.Engine.latency;
    achieved = p.Engine.achieved;
    elapsed = p.Engine.elapsed;
    failed_checks;
    counts;
    attr = List.map (fun (stage, cyc) -> stage, per_req cyc) p.Engine.attribution;
  }

let run_fleet ~requests ~seed ~rate =
  let cfg = fleet_config ~seed ~requests in
  let p = Span.with_ "fleet.run" (fun () -> Fleet.run cfg ~rate) in
  let failed_checks =
    List.map (fun v -> "violation: " ^ v) p.Fleet.violations
    @ if p.Fleet.leaked = 0 then [] else [ "leaked waiting-room slots" ]
  in
  let executed = Array.map (fun s -> float_of_int s.Fleet.s_executed) p.Fleet.shards in
  let max_exec = Array.fold_left Float.max 0. executed in
  let mean_exec = Array.fold_left ( +. ) 0. executed /. float_of_int (Array.length executed) in
  let counts =
    [
      "failovers", float_of_int p.Fleet.failovers;
      "retries", float_of_int p.Fleet.retries;
      "hints", float_of_int p.Fleet.hints;
      "recovery_cycles", float_of_int p.Fleet.recovery_cycles;
      "partial", float_of_int p.Fleet.partial;
      "epochs",
        float_of_int (Array.fold_left (fun acc s -> acc + s.Fleet.s_commits) 0 p.Fleet.shards);
      "shard_imbalance", max_exec /. mean_exec;
    ]
  in
  {
    rate;
    n = p.Fleet.n;
    served = p.Fleet.served;
    shed = p.Fleet.shed;
    partial = p.Fleet.partial;
    p50 = lat_or_nan (fun s -> s.Skipit_obs.Latency.p50) p.Fleet.latency;
    p999 = lat_or_nan (fun s -> s.Skipit_obs.Latency.p999) p.Fleet.latency;
    achieved = p.Fleet.achieved;
    elapsed = p.Fleet.elapsed;
    failed_checks;
    counts;
    attr = [];
  }

let run spec ~telemetry ~seed ~rate =
  match spec.kind with
  | Serve -> run_serve ~requests:spec.requests ~telemetry ~seed ~rate
  | Fleet_kill -> run_fleet ~requests:spec.requests ~seed ~rate

(* The arrival layer in isolation, with the arguments the engine and the
   fleet pass it: the Zipf CDF sampler on [Serve], the aggregate
   200 000-client path on [Fleet_kill]. *)
let schedule spec ~seed ~rate =
  let process, workload, clients, key_range, update_pct =
    match spec.kind with
    | Serve ->
      let c = serve_config ~seed ~requests:spec.requests ~telemetry:false in
      c.Engine.process, c.Engine.workload, c.Engine.clients, c.Engine.key_range, c.Engine.update_pct
    | Fleet_kill ->
      let c = fleet_config ~seed ~requests:spec.requests in
      c.Fleet.process, c.Fleet.workload, c.Fleet.clients, c.Fleet.key_range, c.Fleet.update_pct
  in
  let draw = Workload.draw workload ~key_range ~update_pct ~seed:(seed + 2) in
  Arrival.schedule ~process ~draw ~rate ~clients ~requests:spec.requests ~key_range ~update_pct
    ~seed:(seed + 1) ()

(* The fleet's router ring, as [Fleet.run] builds it from the config. *)
let ring ~seed =
  let c = fleet_config ~seed ~requests:1 in
  Ring.create ~shards:c.Fleet.shards ~vnodes:c.Fleet.vnodes ~seed:c.Fleet.seed, c.Fleet.replicas

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let at_rate outcomes rate = List.filter (fun o -> o.rate = rate) outcomes
let sum f os = List.fold_left (fun acc o -> acc + f o) 0 os

(* Ladder statistics over the sub-runs of one rate: p50 and p99.9 are
   medians over sub-runs; served, shed and achieved are pooled. *)
type rung = {
  r_p50 : float;
  r_p999 : float;
  r_achieved : float;
  r_ok_frac : float;
  r_shed : int;
  r_shed_frac : float;
}

let rung outcomes rate =
  let os = at_rate outcomes rate in
  let served = sum (fun o -> o.served) os and n = sum (fun o -> o.n) os in
  {
    r_p50 = median (List.map (fun o -> o.p50) os);
    r_p999 = median (List.map (fun o -> o.p999) os);
    r_achieved = 1000. *. float_of_int served /. float_of_int (sum (fun o -> o.elapsed) os);
    r_ok_frac = float_of_int (served - sum (fun o -> o.partial) os) /. float_of_int n;
    r_shed = sum (fun o -> o.shed) os;
    r_shed_frac = float_of_int (sum (fun o -> o.shed) os) /. float_of_int n;
  }

let meets_slo r ~rate =
  r.r_p999 <= slo_p999 && r.r_shed_frac <= slo_shed && r.r_achieved >= slo_achieved *. rate

let slo_rate spec outcomes =
  List.fold_left
    (fun best (rate, _) ->
      if meets_slo (rung outcomes rate) ~rate then Float.max best rate else best)
    0. spec.ladder
