(* The state lives unboxed in an 8-byte buffer (a mutable int64 field would
   box on every store), and the draws are [@inline] so callers consume the
   result unboxed: see the no-allocation contract in rng.mli. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64u t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let z = Int64.add (get64u t 0) golden_gamma in
  set64u t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)
let copy t = Bytes.copy t

let[@inline] int t bound =
  assert (bound > 0);
  (* Take the top bits: splitmix64's high bits are the best-distributed. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let int_in t ~lo ~hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let[@inline] float t =
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int raw *. 0x1p-53 (* exact, so bit-identical to dividing by 2^53 *)

let[@inline] bool t = Int64.logand (next_int64 t) 1L = 1L
let[@inline] chance t p = float t < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
