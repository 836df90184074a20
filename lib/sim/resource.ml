type t = {
  name : string;
  free_at : int array;  (* per-unit time at which the unit becomes idle *)
  mutable busy_cycles : int;
  (* Cached argmin of [free_at], maintained across acquisitions so the hot
     path avoids a per-acquire O(count) scan.  [cmin] is the *first* index
     attaining the minimum (the same unit the naive scan picks) and
     [csecond] the minimum over every other unit, both meaningful only when
     [cvalid].  After an acquisition bumps [free_at.(cmin)] to [finish],
     the cache survives iff [finish < csecond] — the updated unit is still
     the unique earliest-free one.  Single-unit resources (writeback units,
     channel wires) have [csecond = max_int] and therefore never rescan. *)
  mutable cmin : int;
  mutable csecond : int;
  mutable cvalid : bool;
}

let create ?(count = 1) name =
  if count <= 0 then invalid_arg "Resource.create: count <= 0";
  {
    name;
    free_at = Array.make count 0;
    busy_cycles = 0;
    cmin = 0;
    csecond = (if count = 1 then max_int else 0);
    cvalid = true;
  }

let name t = t.name
let count t = Array.length t.free_at

(* One pass: first index with the minimum value, plus the runner-up value.
   Ties go to the lowest index, exactly as the naive scan broke them. *)
let rescan t =
  let arr = t.free_at in
  let n = Array.length arr in
  let best = ref 0 and best_v = ref arr.(0) and second_v = ref max_int in
  for i = 1 to n - 1 do
    let v = arr.(i) in
    if v < !best_v then begin
      second_v := !best_v;
      best_v := v;
      best := i
    end
    else if v < !second_v then second_v := v
  done;
  t.cmin <- !best;
  t.csecond <- !second_v;
  t.cvalid <- true

let min_index t =
  if not t.cvalid then rescan t;
  t.cmin

(* [free_at.(cmin)] just rose to [finish]; keep or drop the cache. *)
let bumped t ~finish = if finish >= t.csecond then t.cvalid <- false

let acquire t ~now ~busy =
  if busy < 0 then invalid_arg "Resource.acquire: negative busy";
  let i = min_index t in
  let start = max now t.free_at.(i) in
  let finish = start + busy in
  t.free_at.(i) <- finish;
  bumped t ~finish;
  t.busy_cycles <- t.busy_cycles + busy;
  finish - busy, finish

(* Tuple-free variants for call sites that need only one end of the
   occupancy interval: the per-access timing arithmetic runs once per
   simulated memory operation, so the pair allocation is worth avoiding. *)
let acquire_finish t ~now ~busy =
  if busy < 0 then invalid_arg "Resource.acquire: negative busy";
  let i = min_index t in
  let start = max now t.free_at.(i) in
  let finish = start + busy in
  t.free_at.(i) <- finish;
  bumped t ~finish;
  t.busy_cycles <- t.busy_cycles + busy;
  finish

let acquire_start t ~now ~busy = acquire_finish t ~now ~busy - busy

let pick t = min_index t
let start_on t i ~now = max now t.free_at.(i)

let commit t i ~start ~finish =
  if finish < start then invalid_arg "Resource.commit: finish < start";
  t.free_at.(i) <- finish;
  bumped t ~finish;
  t.busy_cycles <- t.busy_cycles + (finish - start)

let earliest_free t = t.free_at.(min_index t)

let all_free_at t = Array.fold_left max 0 t.free_at

let busy_at t now =
  Array.fold_left (fun acc f -> if f > now then acc + 1 else acc) 0 t.free_at

let total_busy_cycles t = t.busy_cycles

let reset t =
  Array.fill t.free_at 0 (Array.length t.free_at) 0;
  t.busy_cycles <- 0;
  t.cmin <- 0;
  t.csecond <- (if Array.length t.free_at = 1 then max_int else 0);
  t.cvalid <- true

module Banked = struct
  type bank = t
  type nonrec t = { banks : t array }

  let create ~banks ?(count = 1) name =
    if banks <= 0 then invalid_arg "Resource.Banked.create: banks <= 0";
    { banks = Array.init banks (fun i -> create ~count (Printf.sprintf "%s[%d]" name i)) }

  let bank_of t ~addr ~line_bytes =
    t.banks.(addr / line_bytes mod Array.length t.banks)

  let acquire t ~addr ~line_bytes ~now ~busy =
    acquire (bank_of t ~addr ~line_bytes) ~now ~busy

  let acquire_finish t ~addr ~line_bytes ~now ~busy =
    acquire_finish (bank_of t ~addr ~line_bytes) ~now ~busy

  let reset t = Array.iter reset t.banks
end
