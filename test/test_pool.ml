open Batlife_numerics
open Helpers

(* The pools under test are created/shut down per case; the shared
   [Pool.get] caches are exercised too but never shut down. *)

let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_run_covers_all_shares () =
  with_pool ~jobs:4 (fun pool ->
      check_int "size" 4 (Pool.size pool);
      let hits = Array.make 4 0 in
      Pool.run pool (fun share -> hits.(share) <- hits.(share) + 1);
      Array.iteri
        (fun i n -> check_int (Printf.sprintf "share %d ran once" i) 1 n)
        hits)

let test_parallel_for_each_index_once () =
  with_pool ~jobs:3 (fun pool ->
      let hits = Array.make 17 0 in
      Pool.parallel_for pool ~lo:0 ~hi:17 (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Array.iteri
        (fun i n -> check_int (Printf.sprintf "index %d covered once" i) 1 n)
        hits)

let test_run_chunks_ownership () =
  with_pool ~jobs:2 (fun pool ->
      let seen = Array.make 10 (-1) in
      Pool.run_chunks pool
        [| 0; 3; 3; 3; 3; 7; 7; 10 |]
        ~count:4
        (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            seen.(i) <- i
          done);
      Array.iteri (fun i v -> check_int "every index written" i v) seen)

let test_map_array_preserves_order () =
  with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 (fun i -> i) in
      let ys = Pool.map_array pool (fun x -> 2 * x) xs in
      Array.iteri
        (fun i y -> check_int (Printf.sprintf "element %d" i) (2 * i) y)
        ys)

exception Boom of int

(* Exceptions cross the domain boundary: every share finishes, the
   lowest-numbered failure is re-raised on the caller, and the pool
   stays usable afterwards. *)
let test_worker_exception_propagates () =
  with_pool ~jobs:4 (fun pool ->
      let ran = Array.make 4 false in
      (match
         Pool.run pool (fun share ->
             ran.(share) <- true;
             if share >= 2 then raise (Boom share))
       with
      | () -> Alcotest.fail "expected the worker exception to propagate"
      | exception Boom share ->
          check_int "lowest failing share wins" 2 share);
      Array.iteri
        (fun i r -> check_true (Printf.sprintf "share %d still ran" i) r)
        ran;
      (* The section completed despite the failures: reuse the pool. *)
      let total = Atomic.make 0 in
      Pool.run pool (fun share -> ignore (Atomic.fetch_and_add total share));
      check_int "pool usable after exception" 6 (Atomic.get total))

let test_map_array_exception_propagates () =
  with_pool ~jobs:2 (fun pool ->
      match
        Pool.map_array pool
          (fun x -> if x = 3 then raise (Boom x) else x)
          [| 0; 1; 2; 3; 4 |]
      with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Boom 3 -> ())

let test_nested_run_inline () =
  with_pool ~jobs:2 (fun outer ->
      with_pool ~jobs:2 (fun inner ->
          let counts = Array.make 2 0 in
          Pool.run outer (fun share ->
              (* A nested section (even on a different pool) must run
                 inline rather than deadlock on a busy pool. *)
              Pool.run inner (fun inner_share ->
                  if inner_share = 0 then counts.(share) <- counts.(share) + 1);
              Pool.parallel_for inner ~lo:0 ~hi:4 (fun ~lo ~hi ->
                  counts.(share) <- counts.(share) + (hi - lo)));
          check_int "share 0: nested sections all ran" 5 counts.(0);
          check_int "share 1: nested sections all ran" 5 counts.(1)))

let test_sequential_pool () =
  let pool = Pool.create ~jobs:1 in
  check_int "size 1" 1 (Pool.size pool);
  let hits = ref 0 in
  Pool.run pool (fun share ->
      check_int "only share 0" 0 share;
      incr hits);
  check_int "ran once" 1 !hits;
  Pool.shutdown pool

let test_invalid_jobs () =
  check_raises_invalid "jobs 0" (fun () -> ignore (Pool.create ~jobs:0));
  check_raises_invalid "negative" (fun () -> ignore (Pool.get ~jobs:(-3)))

(* Core-count independent: ask for one more domain than the machine
   has, whatever that number is. *)
let test_clamp_jobs () =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  let clamped, events = Diag.capture (fun () -> Pool.clamp_jobs (cores + 1)) in
  check_int "oversubscription clamped to the core count" cores clamped;
  check_int "clamp recorded a Diag note" 1 (List.length events);
  check_true "note is informational, not a fallback"
    (not (List.hd events).Diag.fallback);
  let kept, events = Diag.capture (fun () -> Pool.clamp_jobs cores) in
  check_int "request within the cores kept" cores kept;
  check_int "no note when nothing was clamped" 0 (List.length events);
  check_int "jobs 1 always passes" 1
    (fst (Diag.capture (fun () -> Pool.clamp_jobs 1)));
  check_raises_invalid "jobs 0 rejected" (fun () ->
      ignore (Pool.clamp_jobs 0))

let test_get_cached () =
  let a = Pool.get ~jobs:2 and b = Pool.get ~jobs:2 in
  check_true "same pool returned" (a == b);
  check_int "requested size" 2 (Pool.size a);
  check_true "default jobs positive" (Pool.default_jobs () >= 1)

let suite =
  [
    case "run covers all shares" test_run_covers_all_shares;
    case "parallel_for covers each index once" test_parallel_for_each_index_once;
    case "run_chunks writes every chunk" test_run_chunks_ownership;
    case "map_array preserves order" test_map_array_preserves_order;
    case "worker exception propagates" test_worker_exception_propagates;
    case "map_array exception propagates" test_map_array_exception_propagates;
    case "nested sections run inline" test_nested_run_inline;
    case "jobs = 1 is sequential" test_sequential_pool;
    case "invalid job counts rejected" test_invalid_jobs;
    case "clamp_jobs caps at the core count" test_clamp_jobs;
    case "get caches shared pools" test_get_cached;
  ]
