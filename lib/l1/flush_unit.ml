open Skipit_sim
open Skipit_tilelink
open Skipit_cache
module Trace = Skipit_obs.Trace
module Attr = Skipit_obs.Attribution
module Metrics = Skipit_obs.Metrics
module H = Stats.Registry.Handle

type pending = {
  entry : Flush_queue.entry;
  commit_at : int;
  alloc_at : int;
  meta_write_at : int option;
  buffer_ready_at : int option;
  release_at : int;
  ack_at : int;
}

type submit_result =
  | Coalesced of { commit_at : int; ack_at : int }
  | Accepted of pending

type client = {
  apply_meta : addr:int -> Fshr_fsm.meta_effect -> unit;
  send : addr:int -> kind:Message.wb_kind -> data:int array option -> now:int -> int;
}

type t = {
  p : Params.t;
  core : int;
  mutable client : client;
  fshrs : Resource.t;
  (* Queue-slot back-pressure (§5.2): a request may enqueue only once the
     request [flush_queue_depth] positions earlier was dequeued. *)
  admission : Admission.t option;  (* None when depth = 0 (no buffering) *)
  (* Every request whose ack is still outstanding, oldest first, in
     [pends.(0 .. npend - 1)].  Doubles as the flush counter (§5.2) and the
     §5.3/§5.4 conflict-check structure.  [prune] retires acked entries in
     one in-place pass; [next_ack] (the earliest live ack, [max_int] when
     empty) lets it skip the pass when nothing can have retired. *)
  mutable pends : pending array;
  mutable npend : int;
  mutable next_ack : int;
  book : Flush_queue.t;  (** Bookkeeping mirror of queued entries for tests. *)
  stats : Stats.Registry.t;
  h_submitted : H.t;
  h_coalesced : H.t;
  h_skip_dropped : H.t;
  h_fshr_allocs : H.t;
  h_fshr_busy : H.t;
  h_wb_with_data : H.t;
  h_wb_without_data : H.t;
  fshr_comp : string;  (* metrics names, built once *)
  dequeues_comp : string;
}

(* Filler for the unused tail of [pends]: keeps retired requests from
   being retained, and being long-lived it lets a large [Array.make] skip
   the minor collection a young initial value would force. *)
let no_pending =
  let entry =
    { Flush_queue.addr = -1; kind = Message.Wb_clean; hit = false; dirty = false; enq_at = 0;
      coalesced = 0 }
  in
  { entry; commit_at = 0; alloc_at = 0; meta_write_at = None; buffer_ready_at = None;
    release_at = 0; ack_at = 0 }

let unconnected =
  let fail () = invalid_arg "Flush_unit: no client connected" in
  { apply_meta = (fun ~addr:_ _ -> fail ()); send = (fun ~addr:_ ~kind:_ ~data:_ ~now:_ -> fail ()) }

let create p ~core =
  let stats = Stats.Registry.create () in
  let h = H.create stats in
  {
    p;
    core;
    client = unconnected;
    fshrs = Resource.create ~count:p.Params.n_fshrs (Printf.sprintf "fshr-%d" core);
    admission =
      (if p.Params.flush_queue_depth > 0 then
         Some (Admission.create ~capacity:p.Params.flush_queue_depth)
       else None);
    pends = Array.make 16 no_pending;
    npend = 0;
    next_ack = max_int;
    book =
      Flush_queue.create
        ~name:(Printf.sprintf "fu.%d.q" core)
        ~depth:(max 1 p.Params.flush_queue_depth) ();
    stats;
    h_submitted = h "submitted";
    h_coalesced = h "coalesced";
    h_skip_dropped = h "skip_dropped";
    h_fshr_allocs = h "fshr_allocs";
    h_fshr_busy = h "fshr_busy_cycles";
    h_wb_with_data = h "wb_with_data";
    h_wb_without_data = h "wb_without_data";
    fshr_comp = Printf.sprintf "fu.%d.fshr" core;
    dequeues_comp = Printf.sprintf "fu.%d.dequeues" core;
  }

let connect t client = t.client <- client
let stats t = t.stats
let note_skip_drop t = H.incr t.h_skip_dropped

let append_pending t pend =
  if t.npend = Array.length t.pends then begin
    let bigger = Array.make (2 * t.npend) no_pending in
    Array.blit t.pends 0 bigger 0 t.npend;
    t.pends <- bigger
  end;
  t.pends.(t.npend) <- pend;
  t.npend <- t.npend + 1;
  if pend.ack_at < t.next_ack then t.next_ack <- pend.ack_at

(* Retire every request acked at or before [now], keeping the rest in
   submission order.  A query may carry a [now] behind an earlier one (a
   cross-core probe brings the probing core's clock); entries acked after
   it simply stay until a later query reaches their ack. *)
let retire t ~now =
  if t.next_ack <= now then begin
    let kept = ref 0 and next = ref max_int in
    for i = 0 to t.npend - 1 do
      let p = Array.unsafe_get t.pends i in
      if p.ack_at > now then begin
        Array.unsafe_set t.pends !kept p;
        incr kept;
        if p.ack_at < !next then next := p.ack_at
      end
    done;
    Array.fill t.pends !kept (t.npend - !kept) no_pending;
    t.npend <- !kept;
    t.next_ack <- !next
  end

(* Is booked entry [e] still waiting in the queue for an FSHR at [now]? *)
let rec awaiting_fshr pends n e ~now i =
  i < n
  && (let p = Array.unsafe_get pends i in
      (p.entry == e && p.alloc_at > now) || awaiting_fshr pends n e ~now (i + 1))

let rec drop_booked t ~now =
  if not (Flush_queue.is_empty t.book) then
    if not (awaiting_fshr t.pends t.npend (Flush_queue.oldest t.book) ~now 0) then begin
      Flush_queue.drop_oldest t.book;
      drop_booked t ~now
    end

(* Retire completed requests from the conflict structures. *)
let prune t ~now =
  retire t ~now;
  drop_booked t ~now

(* Index of the oldest live request for line [addr], or [-1]. *)
let rec index_of_line pends n addr i =
  if i >= n then -1
  else if (Array.unsafe_get pends i).entry.Flush_queue.addr = addr then i
  else index_of_line pends n addr (i + 1)

let pending_index t ~addr ~now =
  prune t ~now;
  index_of_line t.pends t.npend addr 0

let find_pending t ~addr ~now =
  match pending_index t ~addr ~now with -1 -> None | i -> Some t.pends.(i)

(* The §5.3 coalescing partner: a request of the same kind to the same
   line, still PENDING IN THE FLUSH QUEUE (not yet dequeued into an FSHR —
   once the FSHR starts, its metadata write is a state change of its own),
   with the cache-line state unchanged since it was enqueued.  This makes
   coalescing self-regulating: when the FSHRs keep up, requests leave the
   queue immediately and nothing merges; when they back up, same-line
   requests pile onto the queued entry — exactly the burst-absorbing
   behaviour §5.2 describes.  Returns its index, or [-1]. *)
let rec coalescible pends n ~addr ~kind ~last_line_change ~now i =
  if i >= n then -1
  else
    let p = Array.unsafe_get pends i in
    let e = p.entry in
    if e.Flush_queue.addr = addr && e.Flush_queue.kind = kind && p.alloc_at > now
       && e.Flush_queue.enq_at >= last_line_change
    then i
    else coalescible pends n ~addr ~kind ~last_line_change ~now (i + 1)

let fshr_ev t ~at ~idx ~addr ~tkind op =
  Trace.emit ~at (Trace.Fshr { core = t.core; idx; op; addr; kind = tkind })

let fshr_step t ~at ~idx ~addr ~tkind s =
  if Trace.enabled () then fshr_ev t ~at ~idx ~addr ~tkind (Trace.Fshr_step s)

let state_cycles t s =
  Fshr_fsm.state_cycles s ~meta_cycles:t.p.Params.l1_meta_access
    ~fill_cycles:(Params.fill_buffer_cycles t.p) ~data_beats:(Params.data_beats t.p)

let submit_fresh t ~addr ~kind ~hit ~dirty ~line_data ~now =
  assert (Option.is_some line_data = (hit && dirty));
  let depth = t.p.Params.flush_queue_depth in
  (* A full queue nacks the LSU, which retries — modelled as the stall
     until the oldest buffered request is dequeued into an FSHR. *)
  let enq_at =
    match t.admission with Some a -> Admission.admit a ~now | None -> now
  in
  Attr.mark Attr.Flushq_wait ~at:enq_at;
  let plan = { Fshr_fsm.hit; dirty; kind } in
  let entry =
    { Flush_queue.addr; kind; hit; dirty; enq_at; coalesced = 0 }
  in
  ignore (Flush_queue.enqueue t.book entry);
  H.incr t.h_fshr_allocs;
  let tkind = Flush_queue.trace_kind kind in
  (* The FSHR walk (and the root-release it sends) drains in the background
     after the CBO commits at [enq_at]; its future-dated completion times
     must not advance the attribution cursor of the issuing request. *)
  let saved_frame = Attr.suspend () in
  (* FSHR allocation.  The FSHR is occupied from dequeue until the
     RootReleaseAck returns (root_release_ack state). *)
  let idx = Resource.pick t.fshrs in
  let alloc_at = Resource.start_on t.fshrs idx ~now:enq_at in
  if Metrics.enabled () then begin
    Metrics.alloc t.fshr_comp ~at:alloc_at;
    Metrics.count t.dequeues_comp ~at:alloc_at
  end;
  if Trace.enabled () then begin
    Trace.emit ~at:alloc_at
      (Trace.Flushq
         { name = Flush_queue.name t.book; op = Trace.Q_dequeue; addr; kind = tkind });
    fshr_ev t ~at:alloc_at ~idx ~addr ~tkind Trace.Fshr_alloc
  end;
  (* The Fig. 7 walk ({!Fshr_fsm.path}) in straight-line code:
     [meta_write] when the request changes the line's metadata,
     [fill_buffer] when the release carries the line, then the release and
     the wait for its ack. *)
  let with_data = Fshr_fsm.sends_data plan in
  let meta_write_at =
    match Fshr_fsm.meta_effect plan with
    | Fshr_fsm.No_meta_change -> None
    | effect ->
      t.client.apply_meta ~addr effect;
      fshr_step t ~at:alloc_at ~idx ~addr ~tkind Trace.Fs_meta_write;
      Some (alloc_at + state_cycles t Fshr_fsm.Meta_write)
  in
  let tm = match meta_write_at with Some at -> at | None -> alloc_at in
  let buffer_ready_at =
    if with_data then begin
      fshr_step t ~at:tm ~idx ~addr ~tkind Trace.Fs_fill_buffer;
      Some (tm + state_cycles t Fshr_fsm.Fill_buffer)
    end
    else None
  in
  let tm = match buffer_ready_at with Some at -> at | None -> tm in
  let release_at =
    if with_data then begin
      fshr_step t ~at:tm ~idx ~addr ~tkind Trace.Fs_release_data;
      tm + state_cycles t Fshr_fsm.Root_release_data
    end
    else begin
      fshr_step t ~at:tm ~idx ~addr ~tkind Trace.Fs_release;
      tm + state_cycles t Fshr_fsm.Root_release
    end
  in
  fshr_step t ~at:release_at ~idx ~addr ~tkind Trace.Fs_release_ack;
  H.incr (if with_data then t.h_wb_with_data else t.h_wb_without_data);
  let ack_at =
    t.client.send ~addr ~kind ~data:(if with_data then line_data else None) ~now:release_at
  in
  if Trace.enabled () then fshr_ev t ~at:ack_at ~idx ~addr ~tkind Trace.Fshr_free;
  if Metrics.enabled () then Metrics.free t.fshr_comp ~at:ack_at;
  Resource.commit t.fshrs idx ~start:alloc_at ~finish:ack_at;
  Attr.restore saved_frame;
  let pending =
    {
      entry;
      commit_at = (if depth = 0 then ack_at else enq_at);
      alloc_at;
      meta_write_at;
      buffer_ready_at;
      release_at;
      ack_at;
    }
  in
  H.add t.h_fshr_busy (ack_at - alloc_at);
  (match t.admission with
   | Some a -> Admission.release a ~at:alloc_at
   | None -> ());
  append_pending t pending;
  Accepted pending

let submit t ~addr ~kind ~hit ~dirty ~line_data ~last_line_change ~now =
  H.incr t.h_submitted;
  let partner =
    if t.p.Params.coalescing then begin
      prune t ~now;
      coalescible t.pends t.npend ~addr ~kind ~last_line_change ~now 0
    end
    else -1
  in
  if partner < 0 then submit_fresh t ~addr ~kind ~hit ~dirty ~line_data ~now
  else begin
    let partner = t.pends.(partner) in
    H.incr t.h_coalesced;
    Flush_queue.record_coalesce partner.entry;
    if Trace.enabled () then
      Trace.emit ~at:now
        (Trace.Flushq
           {
             name = Flush_queue.name t.book;
             op = Trace.Q_coalesce;
             addr;
             kind = Flush_queue.trace_kind kind;
           });
    Coalesced { commit_at = now; ack_at = partner.ack_at }
  end

type load_conflict = Load_no_conflict | Load_forward of int | Load_wait of int

let load_conflict t ~addr ~now =
  match pending_index t ~addr ~now with
  | -1 -> Load_no_conflict
  | i -> (
    let p = t.pends.(i) in
    (* Forwarding from the FSHR's data buffer is only sound while
       [flush_rdy] is still low (before the release): probes are interlocked
       out then (§5.4.1), so the buffer provably holds the line's current
       data.  Once the release has gone out, a remote store may already have
       superseded the buffered data — the load waits for the ack and takes
       the ordinary miss path. *)
    match p.buffer_ready_at with
    | Some tb when max now tb < p.release_at -> Load_forward (max now tb)
    | Some _ | None -> Load_wait (max now p.ack_at))

let store_proceed_at t ~addr ~now =
  match pending_index t ~addr ~now with
  | -1 -> None
  | i -> (
    let p = t.pends.(i) in
    match p.entry.Flush_queue.kind with
    | Message.Wb_flush -> Some (max now p.ack_at)
    | Message.Wb_clean -> (
      (* Clean: may proceed once the FSHR is allocated and, if the line was
         dirty, once the data buffer is filled (§5.3). *)
      match p.buffer_ready_at with
      | Some tb -> Some (max now (max p.alloc_at tb))
      | None -> Some (max now p.alloc_at)))

let block_until t ~addr ~now =
  prune t ~now;
  let until = ref now in
  for i = 0 to t.npend - 1 do
    let p = Array.unsafe_get t.pends i in
    if p.entry.Flush_queue.addr = addr && p.alloc_at <= now && p.release_at > now then
      until := max !until p.release_at
  done;
  !until

let probe_block_until t ~addr ~cap ~now =
  Flush_queue.probe_invalidate t.book ~addr ~cap;
  block_until t ~addr ~now

let evict_block_until t ~addr ~now =
  Flush_queue.evict_invalidate t.book ~addr;
  block_until t ~addr ~now

let fence_ready_at t ~now =
  prune t ~now;
  let ready = ref now in
  for i = 0 to t.npend - 1 do
    ready := max !ready (Array.unsafe_get t.pends i).ack_at
  done;
  !ready

let outstanding t ~now =
  prune t ~now;
  t.npend

let fshrs t = t.fshrs
let queue_occupants t = match t.admission with Some a -> Admission.occupants a | None -> 0

let crash t =
  (* Power failure: in-flight writebacks vanish.  Every conflict/occupancy
     structure must come back empty, or the next run on this system would
     inherit phantom back-pressure (leaked FSHR units, stale queue-departure
     times, booked entries that never drain). *)
  Array.fill t.pends 0 t.npend no_pending;
  t.npend <- 0;
  t.next_ack <- max_int;
  while not (Flush_queue.is_empty t.book) do
    Flush_queue.drop_oldest t.book
  done;
  Resource.reset t.fshrs;
  match t.admission with Some a -> Admission.reset a | None -> ()
