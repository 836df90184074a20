(* Host-time spans recorded by the benchmark around its calls into each
   layer, kept in preallocated arrays (so recording allocates nothing on
   the timed path) and written out once the run ends.  While [on] is
   false, [with_] is one branch around the call.  [rep] is the repetition
   the next spans belong to. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let capacity = 1 lsl 16

let names = Array.make capacity ""
let parents = Array.make capacity (-1)
let reps = Array.make capacity 0
let starts = Array.make capacity 0
let ends = Array.make capacity 0
let words = Array.make capacity 0.
let count = ref 0
let dropped = ref 0
let on = ref false
let rep = ref 0
let parent = ref (-1)

let with_ name f =
  if not !on then f ()
  else if !count = capacity then begin
    incr dropped;
    f ()
  end
  else begin
    let i = !count in
    incr count;
    names.(i) <- name;
    parents.(i) <- !parent;
    reps.(i) <- !rep;
    let outer = !parent in
    parent := i;
    let w0 = Gc.minor_words () in
    starts.(i) <- now_ns ();
    Fun.protect
      ~finally:(fun () ->
        ends.(i) <- now_ns ();
        words.(i) <- Gc.minor_words () -. w0;
        parent := outer)
      f
  end

(* Total duration (ns) and minor words of every span named [name]. *)
let total name =
  let ns = ref 0 and w = ref 0. in
  for i = 0 to !count - 1 do
    if names.(i) = name then begin
      ns := !ns + (ends.(i) - starts.(i));
      w := !w +. words.(i)
    end
  done;
  float_of_int !ns, !w

(* One JSON object per line: a span, its parent, its repetition, and its
   self time (duration minus the part its children cover). *)
let write path =
  let child_ns = Array.make !count 0 in
  for i = 0 to !count - 1 do
    if parents.(i) >= 0 then
      child_ns.(parents.(i)) <- child_ns.(parents.(i)) + (ends.(i) - starts.(i))
  done;
  let oc = open_out path in
  for i = 0 to !count - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"rep\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\
       \"self_ns\":%d,\"minor_words\":%.0f}\n"
      i parents.(i) reps.(i) names.(i) starts.(i) ends.(i)
      (ends.(i) - starts.(i) - child_ns.(i))
      words.(i)
  done;
  close_out oc
