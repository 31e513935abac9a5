(* Domain-safe instrumentation: spans, counters, gauges, histograms.

   Design constraints, in order:

   1. Zero-cost when off.  Every gated probe ([with_span], [observe],
      [set_gauge]) begins with one atomic load and branch; the default
      state records nothing and allocates nothing.
   2. Domain safety.  Counter/gauge cells and the buckets of the
      [Streamstat.Hist] histograms are [Atomic]; completed spans go
      either to the current domain's capture buffer (a DLS cell, no
      sharing) or to a mutex-protected global sink.
      Span nesting state is per-domain (DLS), never shared.
   3. Determinism where it matters.  [capture]/[replay] mirror
      [Diag.capture]/[Diag.replay] exactly, so a parallel fan-out can
      collect each task's spans on its worker domain and replay them
      in input order — the merged stream is then independent of
      scheduling.  Registry snapshots are sorted by name.

   The monotonic clock comes from bechamel's [monotonic_clock] stub
   library (CLOCK_MONOTONIC, nanoseconds, [@@noalloc]); neither the
   stdlib nor Unix expose a monotonic source. *)

let now_ns = Monotonic_clock.now

(* ------------------------------------------------------------------ *)
(* Enabled flag                                                        *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Registries                                                          *)

(* One mutex guards all three name->cell registries.  Registration is
   rare (module initialisation, mostly); reads and updates of the cells
   themselves never take the lock. *)

type counter = { c_name : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_cell : float Atomic.t }
type histogram = Streamstat.Hist.t

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

(* [make] may raise (a histogram's range is validated on creation), so
   the lock is released on every exit. *)
let intern table name make =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt table name with
      | Some c -> c
      | None ->
          let c = make () in
          Hashtbl.add table name c;
          c)

let counter name =
  intern counters name (fun () -> { c_name = name; c_cell = Atomic.make 0 })

let incr c = ignore (Atomic.fetch_and_add c.c_cell 1)
let add c n = ignore (Atomic.fetch_and_add c.c_cell n)
let value c = Atomic.get c.c_cell
let counter_name c = c.c_name
let reset_counter c = Atomic.set c.c_cell 0

let gauge name =
  intern gauges name (fun () -> { g_name = name; g_cell = Atomic.make 0.0 })

let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let histogram ?lo ?hi name =
  intern histograms name (fun () -> Streamstat.Hist.create ?lo ?hi ())

let observe h v = if Atomic.get enabled_flag then Streamstat.Hist.observe h v
let observe_int h n = observe h (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  sp_name : string;
  sp_start_ns : int64;
  sp_dur_ns : int64;
  sp_self_ns : int64;
  sp_depth : int;
  sp_domain : int;
  sp_ctx : string option;
}

(* Per-domain open-span stack (for depth and parent child-time
   accounting) plus the capture redirection cell, mirroring
   [Diag.capture_cell], plus the trace context a service front end
   stamps on every span recorded in its extent. *)
type frame = { f_name : string; f_start : int64; f_depth : int; mutable f_child : int64 }

type dstate = {
  mutable stack : frame list;
  mutable capturing : span list ref option;
  mutable ctx : string option;
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stack = []; capturing = None; ctx = None })

let with_context ctx f =
  let st = Domain.DLS.get dls in
  let saved = st.ctx in
  st.ctx <- Some ctx;
  match f () with
  | result ->
      st.ctx <- saved;
      result
  | exception e ->
      st.ctx <- saved;
      raise e

let current_context () = (Domain.DLS.get dls).ctx

let span_sink : span list ref = ref []
let span_mutex = Mutex.create ()

let record_span st sp =
  match st.capturing with
  | Some buffer -> buffer := sp :: !buffer
  | None ->
      Mutex.lock span_mutex;
      span_sink := sp :: !span_sink;
      Mutex.unlock span_mutex

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = Domain.DLS.get dls in
    let frame =
      { f_name = name; f_start = now_ns (); f_depth = List.length st.stack;
        f_child = 0L }
    in
    st.stack <- frame :: st.stack;
    let finish () =
      let dur = Int64.sub (now_ns ()) frame.f_start in
      (match st.stack with
      | top :: rest when top == frame ->
          st.stack <- rest;
          (match rest with
          | parent :: _ -> parent.f_child <- Int64.add parent.f_child dur
          | [] -> ())
      | _ ->
          (* An effect/exception tore frames out of order; drop down to
             this frame so accounting stays sane. *)
          st.stack <- (match st.stack with [] -> [] | _ :: tl -> tl));
      record_span st
        {
          sp_name = frame.f_name;
          sp_start_ns = frame.f_start;
          sp_dur_ns = dur;
          sp_self_ns = Int64.max 0L (Int64.sub dur frame.f_child);
          sp_depth = frame.f_depth;
          sp_domain = (Domain.self () :> int);
          sp_ctx = st.ctx;
        }
    in
    match f () with
    | result ->
        finish ();
        result
    | exception e ->
        finish ();
        raise e
  end

let capture f =
  let st = Domain.DLS.get dls in
  let saved = st.capturing in
  let buffer = ref [] in
  st.capturing <- Some buffer;
  match f () with
  | result ->
      st.capturing <- saved;
      (result, List.rev !buffer)
  | exception e ->
      st.capturing <- saved;
      raise e

let replay spans =
  let st = Domain.DLS.get dls in
  List.iter (fun sp -> record_span st sp) spans

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type histogram_snapshot = {
  hs_name : string;
  hs_bounds : float array;
  hs_counts : int array;
  hs_total : int;
  hs_sum : float;
  hs_max : float;
}

type snapshot = {
  snap_spans : span list;
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : histogram_snapshot list;
}

let sorted_by_name key xs = List.sort (fun a b -> compare (key a) (key b)) xs

let snapshot () =
  Mutex.lock span_mutex;
  let spans = List.rev !span_sink in
  Mutex.unlock span_mutex;
  Mutex.lock registry_mutex;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) counters [] in
  let gs = Hashtbl.fold (fun _ g acc -> g :: acc) gauges [] in
  let hs = Hashtbl.fold (fun name h acc -> (name, h) :: acc) histograms [] in
  Mutex.unlock registry_mutex;
  {
    snap_spans = spans;
    snap_counters =
      sorted_by_name fst (List.map (fun c -> (c.c_name, value c)) cs);
    snap_gauges =
      sorted_by_name fst (List.map (fun g -> (g.g_name, gauge_value g)) gs);
    snap_histograms =
      sorted_by_name
        (fun h -> h.hs_name)
        (List.map
           (fun (name, h) ->
             (* The overflow bucket comes last, with bound [infinity]. *)
             let buckets = Streamstat.Hist.snapshot h in
             let counts = Array.map snd buckets in
             {
               hs_name = name;
               hs_bounds = Array.sub (Array.map fst buckets) 0
                   (Array.length buckets - 1);
               hs_counts = counts;
               hs_total = Array.fold_left ( + ) 0 counts;
               hs_sum = Streamstat.Hist.sum h;
               hs_max = Streamstat.Hist.max_seen h;
             })
           hs);
  }

let reset () =
  Mutex.lock span_mutex;
  span_sink := [];
  Mutex.unlock span_mutex;
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0.0) gauges;
  Hashtbl.iter (fun _ h -> Streamstat.Hist.reset h) histograms;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Roll-up                                                             *)

type rollup_row = {
  r_name : string;
  r_count : int;
  r_total_ns : int64;
  r_self_ns : int64;
  r_max_ns : int64;
}

let rollup spans =
  let table : (string, rollup_row ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt table sp.sp_name with
      | Some row ->
          let r = !row in
          row :=
            {
              r with
              r_count = r.r_count + 1;
              r_total_ns = Int64.add r.r_total_ns sp.sp_dur_ns;
              r_self_ns = Int64.add r.r_self_ns sp.sp_self_ns;
              r_max_ns = Int64.max r.r_max_ns sp.sp_dur_ns;
            }
      | None ->
          Hashtbl.add table sp.sp_name
            (ref
               {
                 r_name = sp.sp_name;
                 r_count = 1;
                 r_total_ns = sp.sp_dur_ns;
                 r_self_ns = sp.sp_self_ns;
                 r_max_ns = sp.sp_dur_ns;
               }))
    spans;
  Hashtbl.fold (fun _ row acc -> !row :: acc) table []
  |> List.sort (fun a b ->
         match Int64.compare b.r_total_ns a.r_total_ns with
         | 0 -> compare a.r_name b.r_name
         | c -> c)

(* ------------------------------------------------------------------ *)
(* JSON export (hand-written: the toolchain carries no JSON library,
   and both exports are flat enough that printf is clearer)            *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let ms_of_ns ns = Int64.to_float ns /. 1e6

let metrics_json snap =
  let buf = Buffer.create 4096 in
  let obj_of fmt kvs =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (fmt v)) kvs)
  in
  Buffer.add_string buf "{\n  \"schema\": \"batlife.metrics/1\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"counters\": {%s},\n" (obj_of string_of_int snap.snap_counters));
  Buffer.add_string buf
    (Printf.sprintf "  \"gauges\": {%s},\n" (obj_of json_float snap.snap_gauges));
  Buffer.add_string buf "  \"histograms\": {\n";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    \"%s\": {\"bounds\": [%s], \"counts\": [%s], \"total\": %d, \
            \"sum\": %s, \"max\": %s}"
           (json_escape h.hs_name)
           (String.concat ", "
              (Array.to_list (Array.map json_float h.hs_bounds)))
           (String.concat ", "
              (Array.to_list (Array.map string_of_int h.hs_counts)))
           h.hs_total (json_float h.hs_sum)
           (json_float (if h.hs_total = 0 then 0.0 else h.hs_max))))
    snap.snap_histograms;
  Buffer.add_string buf "\n  },\n";
  Buffer.add_string buf "  \"spans\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"count\": %d, \"total_ms\": %s, \
            \"self_ms\": %s, \"max_ms\": %s}"
           (json_escape r.r_name) r.r_count
           (json_float (ms_of_ns r.r_total_ns))
           (json_float (ms_of_ns r.r_self_ns))
           (json_float (ms_of_ns r.r_max_ns))))
    (rollup snap.snap_spans);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let trace_json snap =
  (* Chrome trace_event "JSON object format": complete events carry
     start + duration in microseconds.  Timestamps are rebased to the
     first span so the trace opens at t=0 in Perfetto. *)
  let base =
    List.fold_left
      (fun acc sp -> Int64.min acc sp.sp_start_ns)
      Int64.max_int snap.snap_spans
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"name\": \"%s\", \"cat\": \"batlife\", \"ph\": \"X\", \
            \"ts\": %s, \"dur\": %s, \"pid\": 1, \"tid\": %d, \
            \"args\": {\"depth\": %d%s}}"
           (json_escape sp.sp_name)
           (json_float (Int64.to_float (Int64.sub sp.sp_start_ns base) /. 1e3))
           (json_float (Int64.to_float sp.sp_dur_ns /. 1e3))
           sp.sp_domain sp.sp_depth
           (match sp.sp_ctx with
           | None -> ""
           | Some rid -> Printf.sprintf ", \"rid\": \"%s\"" (json_escape rid))))
    snap.snap_spans;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf

(* Atomic (temp + rename): an export interrupted by a kill or a full
   disk never clobbers a previous complete dump. *)
let write_string ~path s = Atomic_io.write_file ~path s

let write_metrics ~path snap = write_string ~path (metrics_json snap)
let write_trace ~path snap = write_string ~path (trace_json snap)
