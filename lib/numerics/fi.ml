(* Deterministic fault injection: a registry of named sites.

   Production code declares a site once ([site "atomic_io.rename_fail"])
   and consults [fires] at the exact point where a fault would bite.
   With nothing armed the whole subsystem is a single atomic load and a
   branch per consultation — the same fast-path discipline as
   [Telemetry.enabled] — so leaving the probes wired into the hot paths
   costs nothing in a clean run.

   Determinism: an armed site fires on consultations
   [after .. after + count - 1] of its own per-site counter, counted
   only while armed.  There is no randomness here; "seeded" fault plans
   are built one level up (the chaos harness draws site names and
   (after, count) pairs from a seeded [Rng]), so a plan replays
   identically and a failing chaos run can be reproduced from its seed
   alone. *)

type site = {
  s_name : string;
  plan : plan option Atomic.t;
  s_hits : int Atomic.t;  (* consultations while armed *)
  s_fired : int Atomic.t;
}

and plan = { p_after : int; p_count : int }

exception Injected of string

(* Off by default; flipped on by [arm] and off by [reset], so the
   disabled fast path of [fires] is one atomic load. *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let registry : (string, site) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let site name =
  Mutex.lock registry_mutex;
  let s =
    match Hashtbl.find_opt registry name with
    | Some s -> s
    | None ->
        let s =
          {
            s_name = name;
            plan = Atomic.make None;
            s_hits = Atomic.make 0;
            s_fired = Atomic.make 0;
          }
        in
        Hashtbl.add registry name s;
        s
  in
  Mutex.unlock registry_mutex;
  s

let name s = s.s_name

let fires s =
  Atomic.get enabled_flag
  &&
  match Atomic.get s.plan with
  | None -> false
  | Some p ->
      (* The counter orders concurrent consultations (pool workers may
         race on one site); each consultation claims a unique index, so
         exactly [count] of them fire no matter how domains are
         scheduled. *)
      let n = Atomic.fetch_and_add s.s_hits 1 in
      n >= p.p_after
      && n < p.p_after + p.p_count
      &&
      (Atomic.incr s.s_fired;
       true)

let inject s = if fires s then raise (Injected s.s_name)

let arm ?(after = 0) ?(count = 1) n =
  if after < 0 then invalid_arg "Fi.arm: need after >= 0";
  if count < 1 then invalid_arg "Fi.arm: need count >= 1";
  let s = site n in
  Atomic.set s.s_hits 0;
  Atomic.set s.s_fired 0;
  Atomic.set s.plan (Some { p_after = after; p_count = count });
  Atomic.set enabled_flag true

let disarm n = Atomic.set (site n).plan None

let reset () =
  Atomic.set enabled_flag false;
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ s ->
      Atomic.set s.plan None;
      Atomic.set s.s_hits 0;
      Atomic.set s.s_fired 0)
    registry;
  Mutex.unlock registry_mutex

let hits n = Atomic.get (site n).s_hits
let fired n = Atomic.get (site n).s_fired

let armed () =
  Mutex.lock registry_mutex;
  let plans =
    Hashtbl.fold
      (fun _ s acc ->
        match Atomic.get s.plan with
        | None -> acc
        | Some p -> (s.s_name, p.p_after, p.p_count) :: acc)
      registry []
  in
  Mutex.unlock registry_mutex;
  List.sort compare plans

let registered () =
  Mutex.lock registry_mutex;
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort compare names

let with_sites plans f =
  reset ();
  List.iter (fun (name, after, count) -> arm ~after ~count name) plans;
  Fun.protect ~finally:reset f
