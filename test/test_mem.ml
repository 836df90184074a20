module Backing = Skipit_mem.Backing
module Allocator = Skipit_mem.Allocator
module Dram = Skipit_mem.Dram

let test_backing_rw () =
  let b = Backing.create () in
  Alcotest.(check int) "unwritten reads zero" 0 (Backing.read_word b 0x100);
  Backing.write_word b 0x100 42;
  Alcotest.(check int) "readback" 42 (Backing.read_word b 0x100);
  Backing.write_word b 0x100 43;
  Alcotest.(check int) "overwrite" 43 (Backing.read_word b 0x100)

let test_backing_alignment () =
  let b = Backing.create () in
  Alcotest.check_raises "unaligned read"
    (Invalid_argument "Backing: unaligned word address 0x3") (fun () ->
      ignore (Backing.read_word b 3))

let test_backing_lines () =
  let b = Backing.create () in
  let line = Array.init 8 (fun i -> i * 11) in
  Backing.write_line b ~line_bytes:64 0x240 line;
  (* Any address within the line reads the whole aligned line. *)
  Alcotest.(check (array int)) "roundtrip via interior address" line
    (Backing.read_line b ~line_bytes:64 0x278);
  Alcotest.(check int) "word view agrees" 33 (Backing.read_word b 0x258)

let test_backing_copy_independent () =
  let b = Backing.create () in
  Backing.write_word b 0x8 1;
  let snap = Backing.copy b in
  Backing.write_word b 0x8 2;
  Alcotest.(check int) "snapshot unaffected" 1 (Backing.read_word snap 0x8);
  Alcotest.(check int) "footprint" 1 (Backing.footprint snap)

let test_allocator_alignment () =
  let a = Allocator.create ~base:0 () in
  let p1 = Allocator.alloc a 10 in
  let p2 = Allocator.alloc a ~align:64 10 in
  Alcotest.(check int) "first at base" 0 p1;
  Alcotest.(check int) "second line aligned" 0 (p2 land 63);
  Alcotest.(check bool) "no overlap" true (p2 >= p1 + 10);
  let p3 = Allocator.alloc_line a ~line_bytes:64 in
  Alcotest.(check int) "line aligned" 0 (p3 land 63);
  Alcotest.(check bool) "monotone" true (p3 >= p2 + 10)

let test_allocator_invalid () =
  let a = Allocator.create () in
  Alcotest.check_raises "bad align"
    (Invalid_argument "Allocator.alloc: align not a power of two") (fun () ->
      ignore (Allocator.alloc a ~align:12 8))

let prop_alloc_disjoint =
  QCheck.Test.make ~name:"allocations never overlap" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (int_range 1 256))
  @@ fun sizes ->
  let a = Allocator.create () in
  let regions = List.map (fun size -> Allocator.alloc a size, size) sizes in
  let rec disjoint = function
    | [] -> true
    | (base, size) :: rest ->
      List.for_all (fun (b2, s2) -> b2 >= base + size || base >= b2 + s2) rest
      && disjoint rest
  in
  disjoint regions

let test_dram_timing () =
  let d =
    Dram.create ~channels:1 ~read_latency:10 ~write_latency:8 ~occupancy:4 ~line_bytes:64
  in
  let line = Array.make 8 7 in
  let t_w = Dram.write_line d ~addr:0 ~data:line ~now:0 in
  Alcotest.(check int) "write durable at occupancy start + latency" 8 t_w;
  (* Second request queues behind the first's channel occupancy. *)
  let _, t_r = Dram.read_line d ~addr:64 ~now:0 in
  Alcotest.(check int) "read queued behind write burst" 14 t_r;
  Alcotest.(check (array int)) "write visible" line (Dram.peek_line d ~addr:0);
  Alcotest.(check int) "counters" 1 (Dram.reads d);
  Alcotest.(check int) "counters" 1 (Dram.writes d)

let test_dram_parallel_channels () =
  let d =
    Dram.create ~channels:2 ~read_latency:10 ~write_latency:8 ~occupancy:4 ~line_bytes:64
  in
  let _ = Dram.write_line d ~addr:0 ~data:(Array.make 8 0) ~now:0 in
  let t2 = Dram.write_line d ~addr:64 ~data:(Array.make 8 0) ~now:0 in
  Alcotest.(check int) "second channel parallel" 8 t2

let test_dram_snapshot () =
  let d =
    Dram.create ~channels:1 ~read_latency:1 ~write_latency:1 ~occupancy:1 ~line_bytes:64
  in
  Dram.poke_word d 0x40 5;
  let snap = Dram.snapshot d in
  Dram.poke_word d 0x40 6;
  Alcotest.(check int) "snapshot immutable" 5 (Backing.read_word snap 0x40);
  Alcotest.(check int) "live view" 6 (Dram.peek_word d 0x40)

(* [Backing] against the word-keyed [Hashtbl] it replaced: random word and
   line writes and reads (lines of 32, 64 and 128 bytes, so lines span
   part of a 64-byte block or several), unwritten words reading 0,
   [footprint], the [iter] binding set, and snapshots taken with [copy]
   staying as they were while the original moves on.  Unaligned word
   accesses raise in both. *)
type backing_op =
  | W_word of int * int
  | W_line of int * int * int  (* line bytes, address, seed of the data *)
  | R_word of int
  | R_line of int * int
  | Snapshot
  | Unaligned of int

let backing_op_gen =
  QCheck.Gen.(
    (* Word addresses in a few KiB, plus a far region. *)
    let addr = map2 (fun far w -> (if far then 1 lsl 40 else 0) + (w * 8)) bool (int_range 0 600) in
    let line_bytes = oneofl [ 32; 64; 128 ] in
    frequency
      [
        (4, map2 (fun a v -> W_word (a, v)) addr (int_range (-5) 1000));
        (2, map3 (fun lb a seed -> W_line (lb, a, seed)) line_bytes addr small_nat);
        (3, map (fun a -> R_word a) addr);
        (2, map2 (fun lb a -> R_line (lb, a)) line_bytes addr);
        (1, return Snapshot);
        (1, map2 (fun a o -> Unaligned (a + o)) addr (int_range 1 7));
      ])

let backing_ops_arb =
  QCheck.make ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    QCheck.Gen.(list_size (int_range 1 200) backing_op_gen)

let bindings_of_backing b =
  let acc = ref [] in
  Backing.iter b (fun a v -> acc := (a, v) :: !acc);
  List.sort compare !acc

let bindings_of_model m = List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) m [])

let agrees b m =
  Backing.footprint b = Hashtbl.length m && bindings_of_backing b = bindings_of_model m

let prop_backing_model =
  QCheck.Test.make ~name:"backing matches word-keyed model" ~count:300 backing_ops_arb
  @@ fun ops ->
  let b = Backing.create () and m = Hashtbl.create 64 in
  let read a = Option.value ~default:0 (Hashtbl.find_opt m a) in
  let snapshots = ref [] in
  let ok = ref true in
  let expect c = if not c then ok := false in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (function
      | W_word (a, v) ->
        Backing.write_word b a v;
        Hashtbl.replace m a v
      | W_line (lb, a, seed) ->
        let data = Array.init (lb / 8) (fun i -> (seed * 31) + i) in
        Backing.write_line b ~line_bytes:lb a data;
        let base = a land lnot (lb - 1) in
        Array.iteri (fun i v -> Hashtbl.replace m (base + (i * 8)) v) data
      | R_word a -> expect (Backing.read_word b a = read a)
      | R_line (lb, a) ->
        let base = a land lnot (lb - 1) in
        expect
          (Backing.read_line b ~line_bytes:lb a = Array.init (lb / 8) (fun i -> read (base + (i * 8))))
      | Snapshot -> snapshots := (Backing.copy b, Hashtbl.copy m) :: !snapshots
      | Unaligned a ->
        expect (raises (fun () -> Backing.read_word b a));
        expect (raises (fun () -> Backing.write_word b a 1)))
    ops;
  expect (agrees b m);
  List.iter (fun (sb, sm) -> expect (agrees sb sm)) !snapshots;
  !ok

let tests =
  ( "mem",
    [
      Alcotest.test_case "backing read/write" `Quick test_backing_rw;
      Alcotest.test_case "backing alignment" `Quick test_backing_alignment;
      Alcotest.test_case "backing lines" `Quick test_backing_lines;
      Alcotest.test_case "backing copy" `Quick test_backing_copy_independent;
      Alcotest.test_case "allocator alignment" `Quick test_allocator_alignment;
      Alcotest.test_case "allocator invalid align" `Quick test_allocator_invalid;
      Alcotest.test_case "dram timing" `Quick test_dram_timing;
      Alcotest.test_case "dram parallel channels" `Quick test_dram_parallel_channels;
      Alcotest.test_case "dram snapshot" `Quick test_dram_snapshot;
      QCheck_alcotest.to_alcotest prop_alloc_disjoint;
      QCheck_alcotest.to_alcotest prop_backing_model;
    ] )
