module Sample = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    (* Sorted view shared by percentile/median; rebuilt lazily after adds.
       Order-statistic sweeps (p50/p90/p99 over the same sample) would
       otherwise re-sort per query. *)
    mutable sorted_cache : float array option;
  }

  let create () = { data = Array.make 16 0.; len = 0; sorted_cache = None }

  let reserve t =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end

  (* [add_int] writes the converted value itself: routing it through [add]
     would box the float argument on every call. *)
  let add t x =
    reserve t;
    Array.unsafe_set t.data t.len x;
    t.len <- t.len + 1;
    t.sorted_cache <- None

  let add_int t x =
    reserve t;
    Array.unsafe_set t.data t.len (float_of_int x);
    t.len <- t.len + 1;
    t.sorted_cache <- None

  let count t = t.len
  let is_empty t = t.len = 0

  (* Plain loops over the float array: a polymorphic fold would box every
     element it reads.  Sums run in insertion order (float addition is not
     associative, and the reported means must not move). *)
  let total t =
    let acc = ref 0. in
    for i = 0 to t.len - 1 do
      acc := !acc +. Array.unsafe_get t.data i
    done;
    !acc

  let mean t =
    if t.len = 0 then invalid_arg "Sample.mean: empty";
    total t /. float_of_int t.len

  let min t =
    if t.len = 0 then invalid_arg "Sample.min: empty";
    let acc = ref Float.infinity in
    for i = 0 to t.len - 1 do
      acc := Float.min !acc (Array.unsafe_get t.data i)
    done;
    !acc

  let max t =
    if t.len = 0 then invalid_arg "Sample.max: empty";
    let acc = ref Float.neg_infinity in
    for i = 0 to t.len - 1 do
      acc := Float.max !acc (Array.unsafe_get t.data i)
    done;
    !acc

  (* Heap sort specialised to floats: [Array.sort]'s comparison closure
     would box every element it reads.  Samples hold integer-valued
     latencies, where elements that compare equal are bit-identical, so
     the result is the array [Array.sort Float.compare] produces. *)
  let sift_down (a : float array) n i =
    let x = a.(i) in
    let i = ref i and sinking = ref true in
    while !sinking do
      let c = (2 * !i) + 1 in
      let c = if c + 1 < n && Float.compare a.(c) a.(c + 1) < 0 then c + 1 else c in
      if c < n && Float.compare x a.(c) < 0 then begin
        a.(!i) <- a.(c);
        i := c
      end
      else sinking := false
    done;
    a.(!i) <- x

  let heapsort (a : float array) =
    let n = Array.length a in
    for i = (n / 2) - 1 downto 0 do
      sift_down a n i
    done;
    for last = n - 1 downto 1 do
      let x = a.(last) in
      a.(last) <- a.(0);
      a.(0) <- x;
      sift_down a last 0
    done

  let sorted t =
    match t.sorted_cache with
    | Some arr -> arr
    | None ->
      let arr = Array.sub t.data 0 t.len in
      heapsort arr;
      t.sorted_cache <- Some arr;
      arr

  let percentile t p =
    if t.len = 0 then invalid_arg "Sample.percentile: empty";
    if Float.is_nan p || p < 0. || p > 100. then
      invalid_arg "Sample.percentile: p out of range";
    let arr = sorted t in
    let n = Array.length arr in
    (* The boundary cases are answered exactly rather than through the
       interpolation arithmetic, so p=0/p=100 return the true min/max even
       when [p /. 100. *. (n-1)] would round across an index boundary. *)
    if n = 1 || p <= 0. then arr.(0)
    else if p >= 100. then arr.(n - 1)
    else begin
      let rank = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let lo = if lo < 0 then 0 else Stdlib.min lo (n - 1) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      let frac = if frac < 0. then 0. else Stdlib.min frac 1. in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
    end

  let median t = percentile t 50.

  let stddev t =
    if t.len < 2 then 0.
    else begin
      let m = mean t in
      let sumsq = ref 0. in
      for i = 0 to t.len - 1 do
        let x = Array.unsafe_get t.data i in
        sumsq := !sumsq +. ((x -. m) *. (x -. m))
      done;
      sqrt (!sumsq /. float_of_int t.len)
    end

  let values t = Array.sub t.data 0 t.len
end

module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr t = t.n <- t.n + 1
  let add t k = t.n <- t.n + k
  let get t = t.n
  let reset t = t.n <- 0
end

module Registry = struct
  type t = (string, Counter.t) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let counter t name =
    match Hashtbl.find_opt t name with
    | Some c -> c
    | None ->
      let c = Counter.create () in
      Hashtbl.add t name c;
      c

  let get t name =
    match Hashtbl.find_opt t name with Some c -> Counter.get c | None -> 0

  let incr t name = Counter.incr (counter t name)
  let add t name k = Counter.add (counter t name) k
  let reset_all t = Hashtbl.iter (fun _ c -> Counter.reset c) t

  let to_list t =
    Hashtbl.fold (fun name c acc -> (name, Counter.get c) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    List.iter (fun (name, n) -> Format.fprintf ppf "%s: %d@," name n) (to_list t);
    Format.fprintf ppf "@]"

  module Handle = struct
    type registry = t

    (* [c] is [unbound] until the first increment registers [name]; after
       that it is the registry's own counter, so an increment is a field
       read and an add. *)
    type t = { reg : registry; name : string; mutable c : Counter.t }

    let unbound = Counter.create ()
    let create reg name = { reg; name; c = unbound }

    let bound h =
      if h.c == unbound then h.c <- counter h.reg h.name;
      h.c

    let incr h = Counter.incr (bound h)
    let add h k = Counter.add (bound h) k
  end
end
