type t =
  | Uniform of int * int
  | Zipf of { n : int; cdf : float array }
  | Constant of int

let uniform ~lo ~hi =
  if hi < lo then invalid_arg "Distribution.uniform: hi < lo";
  Uniform (lo, hi)

let zipf ~n ~theta =
  if n <= 0 then invalid_arg "Distribution.zipf: n <= 0";
  if theta < 0. then invalid_arg "Distribution.zipf: negative theta";
  (* Precompute the CDF once; sampling is a binary search.  n is at most a
     few million in our workloads so the O(n) setup is fine. *)
  let weights = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  Zipf { n; cdf }

let constant v = Constant v

(* Smallest index in [lo, hi] with cdf.(i) >= u.  Top level, so a sample
   allocates no search closure. *)
let rec search cdf u lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if cdf.(mid) >= u then search cdf u lo mid else search cdf u (mid + 1) hi
  end

let sample t rng =
  match t with
  | Constant v -> v
  | Uniform (lo, hi) -> Rng.int_in rng ~lo ~hi
  | Zipf { n; cdf } ->
    Stdlib.min (search cdf (Rng.float rng) 0 (n - 1)) (n - 1)
