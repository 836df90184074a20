open Skipit_tilelink

type t = { mutable dirty : bool; data : int array; owners : Perm.t array }

let create ~n_cores ~data ~dirty = { dirty; data; owners = Array.make n_cores Perm.Nothing }

let owner_perm t core = t.owners.(core)
let set_owner t core perm = t.owners.(core) <- perm

let rec trunk_from owners i =
  if i >= Array.length owners then -1
  else if Perm.equal owners.(i) Perm.Trunk then i
  else trunk_from owners (i + 1)

let trunk_core t = trunk_from t.owners 0
let trunk_owner t = match trunk_core t with -1 -> None | i -> Some i

let owners_above t level =
  let acc = ref [] in
  for i = Array.length t.owners - 1 downto 0 do
    if Perm.compare t.owners.(i) level > 0 then acc := i :: !acc
  done;
  !acc

(* Allocation-free variant for the probe hot paths: write the owning cores
   (ascending, optionally excluding one) into the caller's reusable buffer
   and return the count.  [buf] must have at least [n_cores] room. *)
let owners_into t level ~exclude buf =
  let n = ref 0 in
  for i = 0 to Array.length t.owners - 1 do
    if i <> exclude && Perm.compare t.owners.(i) level > 0 then begin
      buf.(!n) <- i;
      incr n
    end
  done;
  !n

let has_owners t = owners_above t Perm.Nothing <> []

let check_invariants t =
  match trunk_owner t with
  | None -> Ok ()
  | Some core ->
    let others = List.filter (fun c -> c <> core) (owners_above t Perm.Nothing) in
    if others = [] then Ok ()
    else
      Error
        (Printf.sprintf "Trunk owner %d coexists with other owners [%s]" core
           (String.concat "; " (List.map string_of_int others)))
