(* Trial pool over OCaml 5 Domains for embarrassingly-parallel sweeps.

   The experiment drivers run hundreds of *independent* single-threaded
   simulations (one fresh machine per trial, seeded per trial).  Those
   trials never share simulator state, so fanning them across domains is
   safe and — because every trial derives only from its own seed — the
   result list is bit-for-bit identical to a sequential run.

   Scheduling is one shared cursor: every worker, the calling domain
   included, claims the next unclaimed trial index with
   [Atomic.fetch_and_add] and runs that trial into its own slot.  The
   whole input is known up front and no trial spawns work, so the next
   unclaimed index is all a worker ever needs to know.

   After a trial raises, the workers stop claiming.  The stop flag is
   read only before a claim, so a claimed trial always runs; indices are
   claimed in increasing order, so every trial below a claimed one was
   claimed too and ran.  The lowest recorded failure is therefore the
   first failing trial in input order — the error [List.map] raises. *)

(* One pool at a time: a trial function must not itself fan out, or two
   concurrent sweeps would oversubscribe the machine with jobs^2 domains
   and deadlock risk.  [jobs = 1] runs inline and does not take the
   guard, so a sequential sweep nested inside a parallel one is fine. *)
let active = Atomic.make false

let default_jobs () = Domain.recommended_domain_count ()

let run ~workers f input results errors =
  let n = Array.length input in
  let next = Atomic.make 0 in
  let failed = Atomic.make false in
  let rec work () =
    if not (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f input.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
            errors.(i) <- Some (e, Printexc.get_raw_backtrace ());
            Atomic.set failed true);
        work ()
      end
    end
  in
  (* Fewer workers only means fewer claimants, so a spawn that fails (the
     runtime caps the number of live domains) ends spawning; the sweep
     runs on the domains that did start, and each of them is joined. *)
  let rec spawn k started =
    if k = 0 then started
    else
      match Domain.spawn work with
      | d -> spawn (k - 1) (d :: started)
      | exception _ -> started
  in
  (* the calling domain is a worker too *)
  let domains = spawn (workers - 1) [] in
  work ();
  List.iter Domain.join domains

let map_trials ~jobs f xs =
  if jobs < 1 then invalid_arg "Domain_pool.map_trials: jobs must be >= 1";
  match xs with
  | [] -> []
  | _ when jobs = 1 ->
      (* fast path: exactly the pre-pool sequential behaviour — no
         domains, no atomics, no guard *)
      List.map f xs
  | _ ->
      if not (Atomic.compare_and_set active false true) then
        invalid_arg
          "Domain_pool.map_trials: nested parallel use (a pool is already \
           running; use jobs:1 from inside a trial)";
      Fun.protect
        ~finally:(fun () -> Atomic.set active false)
        (fun () ->
          let input = Array.of_list xs in
          let n = Array.length input in
          let results = Array.make n None in
          let errors = Array.make n None in
          run ~workers:(min jobs n) f input results errors;
          (* the lowest failed index: the first failure in input order *)
          Array.iter
            (function
              | Some (e, bt) -> Printexc.raise_with_backtrace e bt
              | None -> ())
            errors;
          Array.to_list
            (Array.map
               (function
                 | Some v -> v
                 | None ->
                     (* unreachable: no error implies every slot filled *)
                     assert false)
               results))
