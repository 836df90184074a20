type t = { mutable buf : int array; mutable head : int; mutable len : int }

let create ~capacity = { buf = Array.make (max 1 capacity) 0; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t v =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let bigger = Array.make (2 * cap) 0 in
    for i = 0 to t.len - 1 do
      bigger.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- bigger;
    t.head <- 0
  end;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- v;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Int_ring.peek: empty";
  t.buf.(t.head)

let pop t =
  let v = peek t in
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.len <- t.len - 1;
  v

let last t =
  if t.len = 0 then invalid_arg "Int_ring.last: empty";
  t.buf.((t.head + t.len - 1) mod Array.length t.buf)

let clear t =
  t.head <- 0;
  t.len <- 0
