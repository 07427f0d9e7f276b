(** A single processor modelled as a preemptive priority server.

    Work arrives as jobs, each bound to a context key (a thread id, or a
    pseudo-key for interrupts) and a priority.  Lower priority values run
    first; an arriving job preempts a running job of a numerically higher
    priority.  Starting a job whose key differs from the last-run context
    charges a context-switch cost, which is how the paper's 60/70/110 µs
    switch costs arise mechanistically:

    - [warm]: the job's context is still loaded (same key as last run);
    - [cold_idle]: a different context starts while the CPU was not
      executing a preempted thread (e.g. waking a blocked RPC client);
    - [cold_preempt]: a different context forcibly preempts a running
      thread, so the scheduler must first save the full context. *)

type t

type switch_costs = {
  warm : Sim.Time.span;
  cold_idle : Sim.Time.span;
  cold_preempt : Sim.Time.span;
}

val create : ?name:string -> Sim.Engine.t -> switch_costs -> t
(** [name] (default ["cpu"]) labels this processor's observability track
    (["cpu:<name>"]). *)

val interrupt_key : int
(** Pseudo context key used by interrupt jobs.  Interrupt jobs never update
    the last-run context, so returning to the interrupted thread after an
    interrupt is not charged as a full switch. *)

val submit :
  ?needs_switch:bool ->
  ?label:string ->
  ?layer:Obs.Layer.t ->
  t -> key:int -> prio:int -> cost:Sim.Time.span -> (unit -> unit) -> unit
(** [submit t ~key ~prio ~cost k] queues [cost] worth of CPU work for
    context [key]; [k] runs when the work completes.  [prio] 0 is reserved
    for interrupts.  [needs_switch] (default [true]) says the context comes
    off a blocking wait, so a scheduler invocation is due even if this
    context is still the one loaded (the warm-switch case); pass [false]
    for back-to-back work by a thread that never blocked.

    [label]/[layer] name the job's span on the CPU track and attribute any
    context-switch cost it incurs; they do not affect timing.  An
    [interrupt_key] job's span is named ["irq:<label>"], built only when a
    recorder keeps the span. *)

val busy : t -> bool

val last_key : t -> int
(** Context key of the thread that most recently held the CPU. *)

val busy_time : t -> Sim.Time.span
(** Accumulated CPU occupancy, including switch costs. *)

val busy_interrupt_time : t -> Sim.Time.span
(** The share of [busy_time] spent in interrupt context (jobs keyed
    [interrupt_key]).  [busy_time t - busy_interrupt_time t] is thread
    context, the evidence that a one-sided data path schedules no server
    thread. *)

val switches : t -> int
(** Number of cold context switches performed. *)

val queue_length : t -> int
(** Jobs waiting (not running), all priorities. *)
