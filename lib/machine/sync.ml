module Mutex = struct
  type t = {
    mach : Mach.t;
    mutable held : bool;
    waiters : (unit -> unit) Queue.t;
  }

  let create mach = { mach; held = false; waiters = Queue.create () }

  let charge t =
    (* Only threads pay the user-space lock cost; engine callbacks (tests,
       interrupt-adjacent code) may manipulate mutexes for free. *)
    if Thread.self_opt () <> None then
      Thread.compute (Mach.config t.mach).Mach.lock_cost

  let rec lock t =
    charge t;
    if not t.held then t.held <- true
    else begin
      Thread.suspend (fun _ resume -> Queue.push resume t.waiters);
      (* The unlocker hands over the mutex logically; loop to re-check in
         case a same-instant racer took it first. *)
      if t.held then lock t else t.held <- true
    end

  let unlock t =
    if not t.held then invalid_arg "Mutex.unlock: not locked";
    t.held <- false;
    match Queue.take_opt t.waiters with
    | Some wake -> wake ()
    | None -> ()

  let locked t = t.held

  let with_lock t f =
    lock t;
    Fun.protect ~finally:(fun () -> unlock t) f
end

module Condvar = struct
  type t = {
    mach : Mach.t;
    waiters : (unit -> unit) Queue.t;
  }

  let create mach = { mach; waiters = Queue.create () }

  let wait t mu =
    (* Register first, release the mutex, then block: no window for a lost
       wakeup.  The kernel-crossing cost of blocking is charged on the way
       out, where the paper's underflow traps occur. *)
    Mutex.unlock mu;
    Thread.suspend (fun _ resume -> Queue.push resume t.waiters);
    Thread.syscall ();
    Mutex.lock mu

  let signal t =
    match Queue.take_opt t.waiters with
    | None -> ()
    | Some wake ->
      (* Waking a kernel thread requires entering the kernel; charged only
         when called from a thread.  Interrupt context wakes for free (its
         own cost covers it). *)
      if Thread.self_opt () <> None then Thread.syscall ();
      wake ()

  let broadcast t =
    let n = Queue.length t.waiters in
    if n > 0 && Thread.self_opt () <> None then Thread.syscall ();
    for _ = 1 to n do
      match Queue.take_opt t.waiters with
      | Some wake -> wake ()
      | None -> ()
    done

  let waiters t = Queue.length t.waiters
end
