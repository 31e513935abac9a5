open Batlife_numerics
open Batlife_core

type entry = {
  spec : Model_spec.t;
  fingerprint : string;
  d : Discretized.t;
  session : Discretized.Session.session;
}

type slot = { entry : entry; mutable last_used : int; mutable bytes : int }

type t = {
  capacity : int;
  max_bytes : int option;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable resident : int;  (** sum of the slots' byte estimates *)
}

let c_hits = Telemetry.counter "session.cache_hit"
let c_misses = Telemetry.counter "session.cache_miss"
let c_evictions = Telemetry.counter "session.cache_evictions"
let c_evict_capacity = Telemetry.counter "session.cache_evictions_capacity"
let c_evict_bytes = Telemetry.counter "session.cache_evictions_bytes"
let g_size = Telemetry.gauge "session.cache_size"
let g_bytes = Telemetry.gauge "session.cache_bytes"

let create ~capacity ?max_bytes () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  (match max_bytes with
  | Some b when b < 1 -> invalid_arg "Cache.create: max_bytes must be >= 1"
  | _ -> ());
  { capacity; max_bytes; table = Hashtbl.create 64; clock = 0; resident = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let set_gauges t =
  Telemetry.set_gauge g_size (float_of_int (Hashtbl.length t.table));
  Telemetry.set_gauge g_bytes (float_of_int t.resident)

let evict_lru t ~reason =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best.last_used <= slot.last_used -> acc
        | _ -> Some (key, slot))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, slot) ->
      Hashtbl.remove t.table key;
      t.resident <- t.resident - slot.bytes;
      Telemetry.incr c_evictions;
      Telemetry.incr
        (match reason with
        | `Capacity -> c_evict_capacity
        | `Bytes -> c_evict_bytes)

let find_or_build ?fingerprint t spec =
  let fingerprint =
    match fingerprint with
    | Some key -> key
    | None -> Model_spec.fingerprint spec
  in
  match Hashtbl.find_opt t.table fingerprint with
  | Some slot ->
      slot.last_used <- tick t;
      Telemetry.incr c_hits;
      (slot.entry, `Hit)
  | None ->
      Telemetry.incr c_misses;
      let d = Model_spec.build spec in
      let session =
        Discretized.Session.create ~opts:(Model_spec.opts spec) d
      in
      let entry = { spec; fingerprint; d; session } in
      if Hashtbl.length t.table >= t.capacity then evict_lru t ~reason:`Capacity;
      let bytes = Discretized.Session.approx_bytes session in
      Hashtbl.replace t.table fingerprint { entry; last_used = tick t; bytes };
      t.resident <- t.resident + bytes;
      set_gauges t;
      (entry, `Miss)

(* Sessions grow as they warm up (kernel build on the first flush, new
   Fox–Glynn windows per distinct time), so the budget is enforced
   against {e re-read} estimates after the batch's model work — not
   against the estimate at insertion time.  Eviction is LRU, which
   keeps the entry that just served the batch alive longest; an entry
   alone over the whole budget is therefore admitted, used, and only
   then evicted (counted under ["session.cache_evictions_bytes"]). *)
let enforce_budget t =
  (match t.max_bytes with
  | None -> ()
  | Some budget ->
      let resident = ref 0 in
      Hashtbl.iter
        (fun _ slot ->
          slot.bytes <- Discretized.Session.approx_bytes slot.entry.session;
          resident := !resident + slot.bytes)
        t.table;
      t.resident <- !resident;
      while t.resident > budget && Hashtbl.length t.table > 0 do
        evict_lru t ~reason:`Bytes
      done);
  set_gauges t

let size t = Hashtbl.length t.table
let capacity t = t.capacity
let max_bytes t = t.max_bytes
let resident_bytes t = t.resident
let hits _ = Telemetry.value c_hits
let misses _ = Telemetry.value c_misses
let evictions _ = Telemetry.value c_evictions
