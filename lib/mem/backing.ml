(* Words live in 64-byte blocks: [index] maps a block's base address to
   its slot, slot [s] holds the block's eight words at [s * 8] of [words],
   and bit [i] of [masks.(s)] records that word [i] was ever written (so
   [footprint] and [iter] keep word semantics, explicit zero writes
   included).  A line access is one int-keyed lookup per block instead of
   one generic hash operation per word. *)

module Int_tbl = Skipit_sim.Int_tbl

let word_bytes = 8
let block_words = 8
let block_bytes = block_words * word_bytes

type t = {
  index : Int_tbl.t;  (* block base -> slot *)
  mutable words : int array;
  mutable masks : int array;
  mutable slots : int;  (* slots in use *)
}

let create () =
  {
    index = Int_tbl.create ~size_hint:512 ();
    words = Array.make (512 * block_words) 0;
    masks = Array.make 512 0;
    slots = 0;
  }

let check_aligned addr =
  if addr land (word_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Backing: unaligned word address %#x" addr)

let block_of addr = addr land lnot (block_bytes - 1)
let word_in_block addr = (addr land (block_bytes - 1)) / word_bytes

(* The slot of the block at [base], or [-1]. *)
let find t base = Int_tbl.find_default t.index base ~default:(-1)

let slot t base =
  match find t base with
  | -1 ->
    let s = t.slots in
    if s = Array.length t.masks then begin
      let grow a =
        let b = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      t.words <- grow t.words;
      t.masks <- grow t.masks
    end;
    t.slots <- s + 1;
    Int_tbl.replace t.index base s;
    s
  | s -> s

let read_word t addr =
  check_aligned addr;
  match find t (block_of addr) with
  | -1 -> 0
  | s -> t.words.((s * block_words) + word_in_block addr)

let write_word t addr v =
  check_aligned addr;
  let s = slot t (block_of addr) and w = word_in_block addr in
  t.words.((s * block_words) + w) <- v;
  t.masks.(s) <- t.masks.(s) lor (1 lsl w)

let line_base ~line_bytes addr = addr land lnot (line_bytes - 1)

(* Line accesses go block by block: [k] words at a time, from word [w] of
   the block holding word [i] of the line (a 64-byte line is one block). *)
let read_line t ~line_bytes addr =
  let base = line_base ~line_bytes addr and n = line_bytes / word_bytes in
  let out = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let a = base + (!i * word_bytes) in
    let w = word_in_block a in
    let k = min (n - !i) (block_words - w) in
    (match find t (block_of a) with
     | -1 -> ()
     | s -> Array.blit t.words ((s * block_words) + w) out !i k);
    i := !i + k
  done;
  out

let write_line t ~line_bytes addr data =
  let base = line_base ~line_bytes addr and n = line_bytes / word_bytes in
  if Array.length data <> n then invalid_arg "Backing.write_line: wrong line size";
  let i = ref 0 in
  while !i < n do
    let a = base + (!i * word_bytes) in
    let w = word_in_block a in
    let k = min (n - !i) (block_words - w) in
    let s = slot t (block_of a) in
    Array.blit data !i t.words ((s * block_words) + w) k;
    t.masks.(s) <- t.masks.(s) lor (((1 lsl k) - 1) lsl w);
    i := !i + k
  done

let copy t =
  { t with index = Int_tbl.copy t.index; words = Array.copy t.words; masks = Array.copy t.masks }

let iter t f =
  Int_tbl.iter t.index (fun base s ->
    for w = 0 to block_words - 1 do
      if t.masks.(s) land (1 lsl w) <> 0 then
        f (base + (w * word_bytes)) t.words.((s * block_words) + w)
    done)

let footprint t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n
