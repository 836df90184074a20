(** A growable FIFO of ints in a circular array: no allocation per push or
    pop once grown to the queue's high-water mark, and no [option] on
    peek.  [pop], [peek] and [last] raise [Invalid_argument] when empty. *)

type t

val create : capacity:int -> t
(** Initial room for [capacity] entries (at least one). *)

val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit
val pop : t -> int

val peek : t -> int
(** The oldest entry. *)

val last : t -> int
(** The newest entry. *)

val clear : t -> unit
