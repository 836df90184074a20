(* The deterministic RNG underpins experiment reproducibility. *)

let test_determinism () =
  let a = Skipit_sim.Rng.create ~seed:123 in
  let b = Skipit_sim.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Skipit_sim.Rng.next_int64 a)
      (Skipit_sim.Rng.next_int64 b)
  done

let test_seeds_differ () =
  let a = Skipit_sim.Rng.create ~seed:1 in
  let b = Skipit_sim.Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Skipit_sim.Rng.next_int64 a = Skipit_sim.Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_copy_preserves () =
  let a = Skipit_sim.Rng.create ~seed:9 in
  ignore (Skipit_sim.Rng.next_int64 a);
  let b = Skipit_sim.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Skipit_sim.Rng.next_int64 a)
    (Skipit_sim.Rng.next_int64 b)

let test_split_independent () =
  let a = Skipit_sim.Rng.create ~seed:5 in
  let child = Skipit_sim.Rng.split a in
  (* The child stream should not replay the parent's continuation. *)
  let parent_next = Skipit_sim.Rng.next_int64 a in
  let child_next = Skipit_sim.Rng.next_int64 child in
  Alcotest.(check bool) "split diverges" true (parent_next <> child_next)

(* Known answers for the raw splitmix64 stream, recorded before the state
   was moved into an unboxed buffer: every schedule and golden downstream
   rests on these draws staying bit-identical. *)
let check_stream name rng expected =
  List.iteri
    (fun i want ->
      Alcotest.(check int64) (Printf.sprintf "%s output %d" name i) want
        (Skipit_sim.Rng.next_int64 rng))
    expected

let test_known_answers () =
  check_stream "seed 0" (Skipit_sim.Rng.create ~seed:0)
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL; 0xF88BB8A8724C81ECL ];
  let parent = Skipit_sim.Rng.create ~seed:0 in
  let child = Skipit_sim.Rng.split parent in
  check_stream "split child" child
    [ 0xA706DD2F4D197E6FL; 0xB382A305F4414F5EL; 0x631A9154FBABF717L ];
  (* The split consumed exactly the parent's first output. *)
  check_stream "parent after split" parent [ 0x6E789E6AA1B965F4L ];
  let a = Skipit_sim.Rng.create ~seed:42 in
  ignore (Skipit_sim.Rng.next_int64 a);
  let b = Skipit_sim.Rng.copy a in
  check_stream "copy" b [ 0x28EFE333B266F103L; 0x47526757130F9F52L; 0x581CE1FF0E4AE394L ];
  (* Drawing from the copy left the original untouched. *)
  check_stream "original after copy" a [ 0x28EFE333B266F103L ]

let test_derived_known_answers () =
  let module R = Skipit_sim.Rng in
  let r = R.create ~seed:7 in
  Alcotest.(check (list int)) "int" [ 21; 738951; 1 ]
    (let a = R.int r 100 in
     let b = R.int r 1_000_000 in
     [ a; b; R.int r 3 ]);
  Alcotest.(check (list (float 0.))) "float"
    [ 0x1.2a75d6e0ce7c5p-1; 0x1.cf4ced99a8788p-2 ]
    (let a = R.float r in
     [ a; R.float r ]);
  Alcotest.(check (list bool)) "bool" [ true; false; false; true ]
    (let a = R.bool r in
     let b = R.bool r in
     let c = R.bool r in
     [ a; b; c; R.bool r ]);
  Alcotest.(check (list bool)) "chance" [ true; false; true ]
    (let a = R.chance r 0.5 in
     let b = R.chance r 0.001 in
     [ a; b; R.chance r 0.999 ])

(* Minor words allocated by 100k calls of [f], after one warm-up call. *)
let minor_words_100k f =
  let rng = Skipit_sim.Rng.create ~seed:1 in
  let hits = ref 0 in
  ignore (f rng);
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    if f rng then incr hits
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !hits);
  words

let test_no_allocation () =
  let check name words =
    Alcotest.(check (float 0.)) (name ^ ": minor words over 100k calls") 0. words
  in
  check "int" (minor_words_100k (fun r -> Skipit_sim.Rng.int r 100 < 50));
  check "bool" (minor_words_100k Skipit_sim.Rng.bool);
  check "chance" (minor_words_100k (fun r -> Skipit_sim.Rng.chance r 0.5));
  (* A float crossing a module boundary is boxed by the callee unless the
     call is inlined.  Release builds inline it; dune compiles the dev
     profile with -opaque, which rules cross-module inlining out, so there
     the return box (2 words) is all a call may cost. *)
  let float_words = if Build_profile.name = "dev" then 200_000. else 0. in
  Alcotest.(check (float 0.)) "float: minor words over 100k calls" float_words
    (minor_words_100k (fun r -> Skipit_sim.Rng.float r < 0.5))

let prop_int_bounds =
  QCheck.Test.make ~name:"int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
  @@ fun (seed, bound) ->
  let rng = Skipit_sim.Rng.create ~seed in
  let v = Skipit_sim.Rng.int rng bound in
  v >= 0 && v < bound

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int_in within inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
  @@ fun (seed, lo, width) ->
  let rng = Skipit_sim.Rng.create ~seed in
  let v = Skipit_sim.Rng.int_in rng ~lo ~hi:(lo + width) in
  v >= lo && v <= lo + width

let prop_float_unit =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.small_int @@ fun seed ->
  let rng = Skipit_sim.Rng.create ~seed in
  let v = Skipit_sim.Rng.float rng in
  v >= 0. && v < 1.

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 0 40) int))
  @@ fun (seed, xs) ->
  let rng = Skipit_sim.Rng.create ~seed in
  let arr = Array.of_list xs in
  Skipit_sim.Rng.shuffle rng arr;
  List.sort compare (Array.to_list arr) = List.sort compare xs

let test_chance_extremes () =
  let rng = Skipit_sim.Rng.create ~seed:3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Skipit_sim.Rng.chance rng 1.0);
    Alcotest.(check bool) "p=0 always false" false (Skipit_sim.Rng.chance rng 0.0)
  done

let tests =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
      Alcotest.test_case "copy preserves state" `Quick test_copy_preserves;
      Alcotest.test_case "split independent" `Quick test_split_independent;
      Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
      Alcotest.test_case "raw stream known answers" `Quick test_known_answers;
      Alcotest.test_case "derived draw known answers" `Quick test_derived_known_answers;
      Alcotest.test_case "draws allocate nothing" `Quick test_no_allocation;
      QCheck_alcotest.to_alcotest prop_int_bounds;
      QCheck_alcotest.to_alcotest prop_int_in_bounds;
      QCheck_alcotest.to_alcotest prop_float_unit;
      QCheck_alcotest.to_alcotest prop_shuffle_permutation;
    ] )
