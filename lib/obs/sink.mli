(** The installed-sink slot of {!Trace}, {!Metrics} and {!Attribution}.

    Sinks are domain-local, so pool jobs on different domains record
    independently and output is byte-identical at any [--jobs].  A
    [Domain.DLS] read costs a few nanoseconds on each of the dozens of
    hooks every simulated instruction passes, so the slot also counts the
    domains that have a sink installed: while the count is 0, {!get}
    answers [None] after one load. *)

type 'a t

val create : unit -> 'a t

val get : 'a t -> 'a option
(** This domain's sink, if any. *)

val set : 'a t -> 'a option -> unit
(** Install ([Some]) or remove ([None]) this domain's sink. *)
