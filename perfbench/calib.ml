(* The reference kernel that host times are calibrated against.

   The benchmark runs on a few cores of a shared host.  How fast those
   cores run the simulator swings by up to 2x in phases of a fraction of
   a second to tens of seconds, as other tenants contend for the machine;
   neither a tight arithmetic loop nor a cache-missing array walk follows
   those swings, but allocating, pointer-chasing, branchy OCaml code like
   the simulator's does.  Timing this fixed kernel of such code
   between timed jobs measures how fast the machine is at that moment;
   dividing a job's time by it removes most of the swing.  The kernel uses
   only the standard library and shares no code with the program, so a
   change to the program moves the calibrated time in full. *)

module IM = Map.Make (Int)

let lcg x = ((x * 1103515245) + 12345) land 0x3fffffff

(* Balanced-tree updates and lookups, then formatting, string-keyed
   hashing and sorting.  Its live data stays under a megabyte, so it
   barely moves [peak_heap_mb]. *)
let kernel () =
  let x = ref 7 and m = ref IM.empty and acc = ref 0 in
  for i = 1 to 75_000 do
    x := lcg !x;
    let k = (!x lsr 6) land 0xfff in
    match i land 3 with
    | 0 -> m := IM.remove k !m
    | 1 | 2 -> m := IM.add k i !m
    | _ -> acc := !acc + Option.value ~default:1 (IM.find_opt k !m)
  done;
  let b = Buffer.create 4096 in
  for i = 1 to 30_000 do
    x := lcg !x;
    Buffer.add_string b
      (Printf.sprintf "%d:%s:%.3f;" (!x land 0xfff) (string_of_int i) (float_of_int !x /. 7.));
    if Buffer.length b > 100_000 then Buffer.clear b
  done;
  let h = Hashtbl.create 1024 in
  for i = 1 to 50_000 do
    x := lcg !x;
    let k = string_of_int (!x land 0xfff) in
    Hashtbl.replace h k (i + Option.value ~default:0 (Hashtbl.find_opt h k))
  done;
  for r = 1 to 5 do
    let l = List.init 5_000 (fun i -> ((i + r) * 7919) land 0xffff) in
    acc := !acc + List.hd (List.sort compare l)
  done;
  !acc + IM.cardinal !m + Buffer.length b + Hashtbl.length h

(* The kernel's time on an uncontended core of the reference host (a
   2-vCPU KVM guest on a Sapphire Rapids Xeon).  A calibrated second is a
   host second at that speed. *)
let nominal_s = 0.065

(* Host seconds one run of the kernel takes now. *)
let measure () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  float_of_int (Span.now_ns () - t0) /. 1e9

(* [host_s] measured between calibrations that took [before] and [after],
   in calibrated seconds. *)
let calibrated host_s ~before ~after = host_s *. nominal_s /. ((before +. after) /. 2.)
