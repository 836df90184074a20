(** Timed hardware resources with limited parallelism.

    The simulator is transaction-level: each memory operation computes its
    completion time by {e acquiring} the hardware structures it flows through.
    A resource models [count] identical units (MSHRs, FSHRs, L2 banks, DRAM
    channels, link channels, ...): acquiring it at time [now] for [busy]
    cycles picks the earliest-free unit, starts no earlier than [now], and
    occupies that unit for [busy] cycles.  Contention therefore surfaces as
    delayed start times, exactly how structural hazards surface in hardware. *)

type t

val create : ?count:int -> string -> t
(** [create ~count name] makes a resource with [count] parallel units
    (default 1).  [name] labels it in statistics. *)

val name : t -> string
val count : t -> int

val acquire : t -> now:int -> busy:int -> int * int
(** [acquire t ~now ~busy] returns [(start, finish)] with [start >= now] the
    earliest time a unit is free and [finish = start + busy].  The unit is
    marked busy until [finish]. *)

val acquire_finish : t -> now:int -> busy:int -> int
(** {!acquire} returning only [finish] — no pair allocation on the
    per-access path. *)

val acquire_start : t -> now:int -> busy:int -> int
(** {!acquire} returning only [start]. *)

val pick : t -> int
(** The unit the next acquisition would take: the earliest-free one, the
    lowest index on ties.  With {!start_on} and {!commit} this acquires a
    unit for a transaction whose duration depends on downstream contention
    (MSHRs, FSHRs, memory transaction IDs): pick a unit, run the
    transaction from its start time, then commit the occupancy.  The unit
    index also lets observability layers attribute occupancy to individual
    MSHRs/FSHRs. *)

val start_on : t -> int -> now:int -> int
(** [start_on t i ~now] is when unit [i] can start a request arriving at
    [now]: [max now (free time of i)]. *)

val commit : t -> int -> start:int -> finish:int -> unit
(** Occupy unit [i], as returned by {!pick}, from [start] until [finish]
    ([finish >= start], or [Invalid_argument]).  Other resources may be
    acquired between {!pick} and {!commit}; this one must not be. *)

val earliest_free : t -> int
(** Next time at which at least one unit is free (without acquiring). *)

val all_free_at : t -> int
(** Time at which every unit is idle — e.g. when the last outstanding FSHR
    completes. *)

val busy_at : t -> int -> int
(** [busy_at t now] is how many units are still busy at time [now]. *)

val total_busy_cycles : t -> int
(** Accumulated busy cycles across all units (utilisation accounting). *)

val reset : t -> unit

module Banked : sig
  type bank = t
  type t

  val create : banks:int -> ?count:int -> string -> t
  (** [banks] independent resources, each with [count] units; requests are
      routed by address. *)

  val acquire : t -> addr:int -> line_bytes:int -> now:int -> busy:int -> int * int
  (** Route to bank [(addr / line_bytes) mod banks] and acquire it. *)

  val acquire_finish : t -> addr:int -> line_bytes:int -> now:int -> busy:int -> int
  (** {!acquire} returning only the finish time (no pair allocation). *)

  val bank_of : t -> addr:int -> line_bytes:int -> bank
  val reset : t -> unit
end
