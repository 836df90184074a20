module Instr = Skipit_cpu.Instr
module Lsu = Skipit_cpu.Lsu
open Effect
open Effect.Deep

type _ Effect.t += Exec : Instr.t -> int Effect.t | Get_now : int Effect.t | Get_core : int Effect.t

let load addr = perform (Exec (Instr.Load { addr }))
let store addr value = ignore (perform (Exec (Instr.Store { addr; value })))
let cas addr ~expected ~desired = perform (Exec (Instr.Cas { addr; expected; desired })) = 1
let clean addr = ignore (perform (Exec (Instr.Cbo_clean { addr })))
let flush addr = ignore (perform (Exec (Instr.Cbo_flush { addr })))
let inval addr = ignore (perform (Exec (Instr.Cbo_inval { addr })))
let zero addr = ignore (perform (Exec (Instr.Cbo_zero { addr })))
let fence () = ignore (perform (Exec Instr.Fence))
let delay n = ignore (perform (Exec (Instr.Delay n)))
let now () = perform Get_now
let core_id () = perform Get_core

type task = { core : int; body : unit -> unit }

type status = Done | Blocked of (int, status) continuation

(* What a blocked fiber asked for: an instruction, or a clock/core query. *)
type request = Instr | Now | Core

type fiber = {
  fcore : int;
  mutable status : status;
  mutable request : request;
  mutable instr : Instr.t;  (* the instruction, when [request = Instr] *)
}

(* A blocked fiber's suspension, shared by every fiber: its continuation
   is all it records, so it captures nothing. *)
let suspend = Some (fun k -> Blocked k)

(* Run [body] until its first request.  The handler, built once per fiber,
   parks each request in the fiber record, so a [perform] allocates only
   the effect and its continuation. *)
let start f body =
  let effc : type a. a Effect.t -> ((a, status) continuation -> status) option = function
    | Exec i ->
      f.request <- Instr;
      f.instr <- i;
      suspend
    | Get_now ->
      f.request <- Now;
      suspend
    | Get_core ->
      f.request <- Core;
      suspend
    | _ -> None
  in
  f.status <- match_with body () { retc = (fun () -> Done); exnc = raise; effc }

let run_loop system ~stop tasks =
  let fibers =
    Array.of_list
      (List.map
         (fun t ->
           let f = { fcore = t.core; status = Done; request = Now; instr = Instr.Fence } in
           start f t.body;
           f)
         tasks)
  in
  let n = Array.length fibers in
  (* Timestamp-ordered scheduling: always advance the fiber whose core clock
     is smallest, so cross-core state mutations happen in global time
     order.  The scan is a plain array sweep — no per-instruction list
     rebuild — and ties go to the lowest task index, matching the old
     filter-then-fold order. *)
  let live = ref 0 in
  Array.iter (fun f -> match f.status with Blocked _ -> incr live | Done -> ()) fibers;
  let pick () =
    let best = ref (-1) in
    let best_clock = ref max_int in
    for i = 0 to n - 1 do
      let f = Array.unsafe_get fibers i in
      match f.status with
      | Done -> ()
      | Blocked _ ->
        let c = Lsu.clock (System.lsu system f.fcore) in
        if !best < 0 || c < !best_clock then begin
          best := i;
          best_clock := c
        end
    done;
    !best
  in
  let rec loop () =
    if !live = 0 then `Completed (System.max_clock system)
    else if stop () then
      (* Crash point: abandon every blocked fiber mid-instruction.  The
         one-shot continuations are simply dropped (safe to GC); whatever
         the tasks were about to do next never happens — exactly a power
         failure at instruction granularity. *)
      `Stopped (System.max_clock system)
    else begin
      let fiber = fibers.(pick ()) in
      (match fiber.status with
       | Done -> assert false
       | Blocked k ->
         let lsu = System.lsu system fiber.fcore in
         let answer =
           match fiber.request with
           | Instr -> Lsu.exec lsu fiber.instr
           | Now -> Lsu.clock lsu
           | Core -> fiber.fcore
         in
         System.maybe_audit system;
         fiber.status <- continue k answer;
         match fiber.status with Done -> decr live | Blocked _ -> ());
      loop ()
    end
  in
  loop ()

let never_stop () = false

let run system tasks =
  match run_loop system ~stop:never_stop tasks with
  | `Completed c -> c
  | `Stopped _ -> assert false

let run_until system ~stop tasks = run_loop system ~stop tasks
