#include "sched/list_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fault/recovery.h"
#include "util/binary_heap.h"

namespace ftes {

int ListSchedule::copy_index(CopyRef ref) const {
  const std::int32_t p = ref.process.get();
  if (p < 0 || static_cast<std::size_t>(p) + 1 >= first_copy.size()) return -1;
  if (ref.copy < 0) return -1;
  const int idx = first_copy[static_cast<std::size_t>(p)] + ref.copy;
  if (idx >= first_copy[static_cast<std::size_t>(p) + 1]) return -1;
  return idx;
}

Time ListSchedule::process_finish(ProcessId p) const {
  if (!p.valid() ||
      static_cast<std::size_t>(p.get()) + 1 >= first_copy.size()) {
    return 0;
  }
  Time latest = 0;
  for (int i = first_copy[static_cast<std::size_t>(p.get())];
       i < first_copy[static_cast<std::size_t>(p.get()) + 1]; ++i) {
    latest = std::max(latest, copies[static_cast<std::size_t>(i)].finish);
  }
  return latest;
}

std::size_t snapshot_bytes(const ScheduleSnapshot& s) {
  std::size_t bytes = sizeof(ScheduleSnapshot);
  bytes += s.node_free.size() * sizeof(Time);
  bytes += s.placed.size() * sizeof(char);
  bytes += s.deps_left.size() * sizeof(int);
  bytes += s.data_ready.size() * sizeof(Time);
  bytes += s.ready_heap.size() * sizeof(SnapshotReadyEntry);
  bytes += s.tx_heap.size() * sizeof(TxEntry);
  bytes += s.partial.copies.size() * sizeof(ScheduledCopy);
  bytes += s.partial.messages.size() * sizeof(ScheduledMessage);
  bytes += s.partial.bus_order.size() * sizeof(int);
  bytes += s.partial.first_copy.size() * sizeof(int);
  for (const std::vector<int>& order : s.partial.node_order) {
    bytes += sizeof(order) + order.size() * sizeof(int);
  }
  return bytes;
}

Time fault_free_duration(const Application& app, const CopyPlan& copy,
                         ProcessId pid) {
  const Process& proc = app.process(pid);
  RecoveryParams params{proc.wcet_on(copy.node), proc.alpha, proc.mu,
                        proc.chi};
  if (copy.checkpoints >= 1) {
    return checkpointed_exec_time(params, copy.checkpoints, 0);
  }
  return replica_exec_time(params);
}

std::vector<Time> copy_priority_ranks(const Application& app,
                                      const Architecture& arch,
                                      const PolicyAssignment& assignment) {
  std::vector<int> first(static_cast<std::size_t>(app.process_count()) + 1, 0);
  for (int i = 0; i < app.process_count(); ++i) {
    first[static_cast<std::size_t>(i) + 1] =
        first[static_cast<std::size_t>(i)] +
        assignment.plan(ProcessId{i}).copy_count();
  }
  std::vector<Time> rank(static_cast<std::size_t>(first.back()), 0);
  // Largest rank among a process's copies: the successor term of every copy
  // of each of its producers.
  std::vector<Time> process_rank(static_cast<std::size_t>(app.process_count()),
                                 0);
  const std::vector<ProcessId>& order = app.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const ProcessId pid = *it;
    Time succ = 0;
    for (MessageId mid : app.outputs(pid)) {
      succ = std::max(succ, process_rank[static_cast<std::size_t>(
                                app.message(mid).dst.get())]);
    }
    const ProcessPlan& plan = assignment.plan(pid);
    Time& best = process_rank[static_cast<std::size_t>(pid.get())];
    for (int j = 0; j < plan.copy_count(); ++j) {
      const CopyPlan& copy = plan.copies[static_cast<std::size_t>(j)];
      // Communication is approximated by the worst-case bus duration of the
      // heaviest outgoing message; exact slot timing is resolved during the
      // actual placement.
      Time comm = 0;
      for (MessageId mid : app.outputs(pid)) {
        comm = std::max(comm, arch.bus().worst_case_duration(
                                  copy.node, app.message(mid).size));
      }
      const Time r = succ + fault_free_duration(app, copy, pid) + comm;
      rank[static_cast<std::size_t>(first[static_cast<std::size_t>(
                                        pid.get())] + j)] = r;
      best = std::max(best, r);
    }
  }
  return rank;
}

PolicyAssignment strip_fault_tolerance(const Application& app,
                                       const PolicyAssignment& reference) {
  PolicyAssignment stripped(app.process_count());
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    ProcessPlan plan;
    plan.kind = PolicyKind::kCheckpointing;
    CopyPlan copy;
    copy.node = reference.plan(pid).copies.at(0).node;
    copy.checkpoints = 0;  // no checkpoint overhead, no recoveries
    copy.recoveries = 0;
    plan.copies.push_back(copy);
    stripped.plan(pid) = plan;
  }
  return stripped;
}

namespace {

/// The default snapshot interval for a build of that many events: the
/// nearest integer to sqrt(events), in pure integer math so the interval
/// (and thus every snapshot-resume counter) is bit-identical across libm
/// implementations.  r = floor(sqrt(n)) by digit-pair isqrt, bumped past
/// the midpoint since (r + 0.5)^2 = r^2 + r + 0.25.
int interval_for_events(std::size_t events) {
  std::size_t r = 0;
  std::size_t rem = events;
  std::size_t bit = std::size_t{1}
                    << (std::numeric_limits<std::size_t>::digits - 2);
  while (bit > rem) bit >>= 2;
  while (bit != 0) {
    if (rem >= r + bit) {
      rem -= r + bit;
      r = (r >> 1) + bit;
    } else {
      r >>= 1;
    }
    bit >>= 2;
  }
  if (events - r * r > r) ++r;  // round half up, matching llround(sqrt(n))
  return std::max(1, static_cast<int>(r));
}

struct CopyVertex {
  CopyRef ref;
  NodeId node;
  Time duration = 0;
  Time release = 0;
};

/// Min order of the ready queue: earliest start, then highest partial
/// critical path rank, then lowest vertex id -- the exact pick of the
/// historical linear ready-scan.
struct ReadyLess {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    if (a.start != b.start) return a.start < b.start;
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.vertex < b.vertex;
  }
};

/// Min order of the pending-transmission queue: earliest ready, then lowest
/// message id, then enqueue order -- the historical linear minimum search.
struct TxLess {
  bool operator()(const TxEntry& a, const TxEntry& b) const {
    if (a.ready != b.ready) return a.ready < b.ready;
    if (a.msg != b.msg) return a.msg < b.msg;
    return a.seq < b.seq;
  }
};

/// One list-scheduling run: static problem data (copy vertices, priorities)
/// plus the dynamic event-loop state.  The dynamic state either starts fresh
/// (full build) or is restored from a base run's ScheduleSnapshot with the
/// moved process's vertices re-derived (resume).
class Scheduler {
 public:
  Scheduler(const Application& app, const Architecture& arch,
            const PolicyAssignment& assignment)
      : app_(app), arch_(arch), assignment_(assignment) {}

  // ---- static problem data ---------------------------------------------

  void build_static() {
    if (assignment_.process_count() != app_.process_count()) {
      throw std::invalid_argument("assignment size mismatch");
    }
    first_copy.assign(static_cast<std::size_t>(app_.process_count()) + 1, 0);
    for (int i = 0; i < app_.process_count(); ++i) {
      const ProcessId pid{i};
      const ProcessPlan& plan = assignment_.plan(pid);
      if (plan.copies.empty()) {
        throw std::invalid_argument("plan without copies");
      }
      first_copy[static_cast<std::size_t>(i) + 1] =
          first_copy[static_cast<std::size_t>(i)] + plan.copy_count();
      for (int j = 0; j < plan.copy_count(); ++j) {
        const CopyPlan& copy = plan.copies[static_cast<std::size_t>(j)];
        if (!copy.node.valid()) throw std::invalid_argument("unmapped copy");
        CopyVertex v;
        v.ref = CopyRef{pid, j};
        v.node = copy.node;
        v.duration = fault_free_duration(app_, copy, pid);
        v.release = app_.process(pid).release;
        verts.push_back(v);
      }
    }

    rank = copy_priority_ranks(app_, arch_, assignment_);
  }

  [[nodiscard]] int vertex_of(ProcessId p, int copy) const {
    return first_copy[static_cast<std::size_t>(p.get())] + copy;
  }

  /// Exact event count of a full run: every copy placement plus one bus
  /// transmission per (cross-node message, producer copy).
  [[nodiscard]] std::size_t total_events() const {
    std::size_t events = verts.size();
    for (const Message& m : app_.messages()) {
      const ProcessPlan& dp = assignment_.plan(m.dst);
      for (const CopyPlan& s : assignment_.plan(m.src).copies) {
        if (sends_over_bus(dp, s.node)) ++events;
      }
    }
    return events;
  }

  // ---- dynamic state ----------------------------------------------------

  void init_dynamic() {
    result.copies.assign(verts.size(), ScheduledCopy{});
    result.first_copy = first_copy;
    result.node_order.assign(static_cast<std::size_t>(arch_.node_count()), {});
    node_free.assign(static_cast<std::size_t>(arch_.node_count()), 0);
    placed.assign(verts.size(), 0);
    data_ready.assign(verts.size(), 0);
    // One dependency per (inbound message, producer copy), shared by all
    // copies of the consumer.
    deps_left.assign(verts.size(), 0);
    for (int i = 0; i < app_.process_count(); ++i) {
      int deps = 0;
      for (MessageId mid : app_.inputs(ProcessId{i})) {
        deps += assignment_.plan(app_.message(mid).src).copy_count();
      }
      std::fill(deps_left.begin() + first_copy[static_cast<std::size_t>(i)],
                deps_left.begin() + first_copy[static_cast<std::size_t>(i) + 1],
                deps);
    }
    remaining = verts.size();
    if (log) {
      log->snapshots.clear();
      log->avail_event.assign(verts.size(), 0);
      log->placed_event.assign(verts.size(), 0);
      log->ties.clear();
      log->rank = rank;
    }
    for (std::size_t v = 0; v < verts.size(); ++v) {
      if (deps_left[v] == 0) {
        ready.push(ReadyEntry{start_of(static_cast<int>(v)),
                              rank[v], static_cast<int>(v)});
      }
    }
  }

  [[nodiscard]] Time start_of(int v) const {
    const CopyVertex& cv = verts[static_cast<std::size_t>(v)];
    return std::max({data_ready[static_cast<std::size_t>(v)], cv.release,
                     node_free[static_cast<std::size_t>(cv.node.get())]});
  }

  // ---- event loop -------------------------------------------------------

  ListSchedule run() {
    while (remaining > 0) {
      if (log &&
          event % static_cast<std::size_t>(log->snapshot_interval) == 0) {
        take_snapshot();
      }

      // Best startable copy: pop stale ready entries (a vertex's true start
      // only grows, so an entry whose key matches its recomputed start is
      // the true minimum under ReadyLess -- see docs/ARCHITECTURE.md).
      int best_vertex = -1;
      Time best_start = kTimeInfinity;
      while (!ready.empty()) {
        const ReadyEntry top = ready.top();
        const Time now = start_of(top.vertex);
        if (now != top.start) {
          ready.pop();
          ++heap_pops;
          ready.push(ReadyEntry{now, top.rank, top.vertex});
          continue;
        }
        best_vertex = top.vertex;
        best_start = top.start;
        break;
      }

      // A transmission ready no later than the earliest startable copy is
      // committed first, keeping the bus FIFO in ready order.
      if (!txq.empty() && (best_vertex < 0 || txq.top().ready <= best_start)) {
        const TxEntry tx = txq.top();
        txq.pop();
        ++heap_pops;
        commit_tx(tx);
      } else if (best_vertex < 0) {
        throw std::logic_error("list scheduler deadlock (cyclic copy graph?)");
      } else {
        ready.pop();
        ++heap_pops;
        if (log) record_start_ties(best_vertex, best_start);
        commit_copy(best_vertex, best_start);
      }
      ++event;
    }

    // Bus finish may exceed the last copy finish; the cycle ends when all
    // activity (including transmissions) completed.
    for (const ScheduledMessage& m : result.messages) {
      result.makespan = std::max(result.makespan, m.finish);
    }
    if (log) log->event_count = event;
    return std::move(result);
  }

  void commit_copy(int v, Time start) {
    const CopyVertex& cv = verts[static_cast<std::size_t>(v)];
    ScheduledCopy sc;
    sc.ref = cv.ref;
    sc.node = cv.node;
    sc.start = start;
    sc.finish = start + cv.duration;
    result.copies[static_cast<std::size_t>(v)] = sc;
    placed[static_cast<std::size_t>(v)] = 1;
    --remaining;
    node_free[static_cast<std::size_t>(cv.node.get())] = sc.finish;
    result.node_order[static_cast<std::size_t>(cv.node.get())].push_back(v);
    result.makespan = std::max(result.makespan, sc.finish);
    if (log) log->placed_event[static_cast<std::size_t>(v)] = event;

    // Emit deliveries / enqueue transmissions for outgoing messages.
    for (MessageId mid : app_.outputs(cv.ref.process)) {
      const Message& m = app_.message(mid);
      if (sends_over_bus(assignment_.plan(m.dst), cv.node)) {
        txq.push(TxEntry{sc.finish, mid.get(), tx_seq++, cv.ref.copy,
                         cv.node});
      } else {
        deliver(m, sc.finish);
      }
    }
  }

  void commit_tx(const TxEntry& tx) {
    const Message& m = app_.message(MessageId{tx.msg});
    const Time ready_at = std::max(tx.ready, bus_free);
    const Time start = arch_.bus().next_slot_start(tx.sender, ready_at);
    const Time finish =
        arch_.bus().transmission_finish(tx.sender, ready_at, m.size);
    bus_free = finish;
    result.bus_order.push_back(static_cast<int>(result.messages.size()));
    result.messages.push_back(
        ScheduledMessage{MessageId{tx.msg}, tx.src_copy, tx.sender, tx.ready,
                         start, finish});
    deliver(m, finish);
  }

  /// Producer delivered message m at `delivery` to all consumer copies:
  /// update their readiness and dependency counters; a copy whose last
  /// dependency resolved joins the ready queue.
  void deliver(const Message& m, Time delivery) {
    const ProcessPlan& dp = assignment_.plan(m.dst);
    for (int dj = 0; dj < dp.copy_count(); ++dj) {
      const int dv = vertex_of(m.dst, dj);
      data_ready[static_cast<std::size_t>(dv)] =
          std::max(data_ready[static_cast<std::size_t>(dv)], delivery);
      if (--deps_left[static_cast<std::size_t>(dv)] == 0) {
        if (log) log->avail_event[static_cast<std::size_t>(dv)] = event + 1;
        ready.push(ReadyEntry{start_of(dv),
                              rank[static_cast<std::size_t>(dv)], dv});
      }
    }
  }

  /// Called (log builds only) after popping the winning copy but before
  /// committing it: every other ready vertex whose true start equals the
  /// winner's participates in a rank-broken tie at this event.  Stale
  /// entries encountered on the way are refreshed, never dropped.
  void record_start_ties(int winner, Time start) {
    std::vector<ReadyEntry> tied;
    while (!ready.empty()) {
      const ReadyEntry top = ready.top();
      const Time now = start_of(top.vertex);
      if (now != top.start) {
        ready.pop();
        ready.push(ReadyEntry{now, top.rank, top.vertex});
        continue;
      }
      if (top.start != start) break;  // fresh minimum past the winner's start
      tied.push_back(top);
      ready.pop();
    }
    if (!tied.empty()) {
      ScheduleCheckpointLog::StartTie tie;
      tie.event = event;
      tie.winner = winner;
      tie.contenders.push_back(winner);
      for (const ReadyEntry& e : tied) {
        tie.contenders.push_back(e.vertex);
        ready.push(e);
      }
      log->ties.push_back(std::move(tie));
    }
  }

  void take_snapshot() {
    ScheduleSnapshot s;
    s.event_index = event;
    s.remaining = remaining;
    s.bus_free = bus_free;
    s.tx_seq = tx_seq;
    s.node_free = node_free;
    s.placed = placed;
    s.deps_left = deps_left;
    s.data_ready = data_ready;
    // Ready entries are re-keyed to their *current* start: lazy keys may be
    // stale, and a restored entry must be a valid lower bound of its true
    // start (which only grows).  Ranks are not stored; the restoring run
    // re-stamps them from its own rank vector.
    s.ready_heap.reserve(ready.items().size());
    for (const ReadyEntry& e : ready.items()) {
      s.ready_heap.push_back(SnapshotReadyEntry{start_of(e.vertex), e.vertex});
    }
    s.tx_heap = txq.items();
    s.partial = result;
    log->snapshots.push_back(std::move(s));
  }

  const Application& app_;
  const Architecture& arch_;
  const PolicyAssignment& assignment_;

  // Static problem data.
  std::vector<CopyVertex> verts;
  std::vector<int> first_copy;
  std::vector<Time> rank;

  // Dynamic event-loop state.
  ListSchedule result;
  std::vector<char> placed;
  std::vector<int> deps_left;
  std::vector<Time> data_ready;
  std::vector<Time> node_free;
  Time bus_free = 0;
  BinaryMinHeap<ReadyEntry, ReadyLess> ready;
  BinaryMinHeap<TxEntry, TxLess> txq;
  int tx_seq = 0;
  std::size_t remaining = 0;
  std::size_t event = 0;
  std::size_t heap_pops = 0;

  ScheduleCheckpointLog* log = nullptr;
};

ListSchedule build_schedule(const Application& app, const Architecture& arch,
                            const PolicyAssignment& assignment,
                            ScheduleCheckpointLog* log, int snapshot_interval) {
  Scheduler s(app, arch, assignment);
  s.build_static();
  if (log) {
    if (snapshot_interval <= 0) {
      snapshot_interval = interval_for_events(s.total_events());
    }
    log->snapshot_interval = snapshot_interval;
    s.log = log;
  }
  s.init_dynamic();
  return s.run();
}

}  // namespace

ListSchedule list_schedule(const Application& app, const Architecture& arch,
                           const PolicyAssignment& assignment) {
  return build_schedule(app, arch, assignment, nullptr, 0);
}

ListSchedule list_schedule(const Application& app, const Architecture& arch,
                           const PolicyAssignment& assignment,
                           ScheduleCheckpointLog& log, int snapshot_interval) {
  return build_schedule(app, arch, assignment, &log, snapshot_interval);
}

ListSchedule list_schedule_resume(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& base,
                                  const ScheduleCheckpointLog& log,
                                  const PolicyAssignment& candidate,
                                  ProcessId moved,
                                  ListScheduleResumeStats* stats) {
  ListScheduleResumeStats local;
  Scheduler s(app, arch, candidate);
  s.build_static();

  // Base-side vertex layout (the log's event indices are per base vertex).
  const int process_count = app.process_count();
  std::vector<int> base_first(static_cast<std::size_t>(process_count) + 1, 0);
  for (int i = 0; i < process_count; ++i) {
    base_first[static_cast<std::size_t>(i) + 1] =
        base_first[static_cast<std::size_t>(i)] +
        base.plan(ProcessId{i}).copy_count();
  }
  const int base_total = base_first[static_cast<std::size_t>(process_count)];
  const int base_first_p = base_first[static_cast<std::size_t>(moved.get())];
  const int base_p_end = base_first[static_cast<std::size_t>(moved.get()) + 1];
  const int cand_p_count = candidate.plan(moved).copy_count();
  const int delta = cand_p_count - (base_p_end - base_first_p);

  const auto moved_vertex = [&](int bv) {
    return bv >= base_first_p && bv < base_p_end;
  };
  // Candidate vertex of a non-moved base vertex: the moved process's
  // successors in vertex order shift by its copy-count change.  Monotone
  // in bv, so it preserves the vertex-id order that breaks rank ties.
  const auto remap = [&](int bv) {
    assert(!moved_vertex(bv));
    return bv < base_first_p ? bv : bv + delta;
  };

  // ---- first affected event --------------------------------------------
  //
  // The candidate run provably coincides with the base run up to (not
  // including) `limit`:
  //   * the moved process's copies cannot be selected before they are
  //     ready (avail_event; their readiness index is move-invariant
  //     because it is produced by unaffected producer deliveries),
  //   * a producer placement whose inbound-to-moved message flips between
  //     local delivery and a bus transmission behaves differently, so it
  //     must be replayed (placed_event),
  //   * a vertex whose priority rank changed (every ancestor of the moved
  //     process, typically) can win or lose start-time ties -- but ranks
  //     decide *only* such ties, and ready-queue entries are transplanted
  //     with the candidate's ranks below, so the resume point only has to
  //     precede the vertex's first recorded tie, not its readiness.
  // Everything else depends only on data the move does not touch.
  std::size_t limit = log.event_count;
  for (int bv = base_first_p; bv < base_p_end; ++bv) {
    limit = std::min(limit, log.avail_event[static_cast<std::size_t>(bv)]);
  }
  const ProcessPlan& base_dp = base.plan(moved);
  const ProcessPlan& cand_dp = candidate.plan(moved);
  for (MessageId mid : app.inputs(moved)) {
    const Message& m = app.message(mid);
    const ProcessPlan& sp = base.plan(m.src);
    for (int sj = 0; sj < sp.copy_count(); ++sj) {
      const NodeId sn = sp.copies[static_cast<std::size_t>(sj)].node;
      if (sends_over_bus(base_dp, sn) != sends_over_bus(cand_dp, sn)) {
        limit = std::min(
            limit, log.placed_event[static_cast<std::size_t>(
                       base_first[static_cast<std::size_t>(m.src.get())] +
                       sj)]);
      }
    }
  }
  // Re-judge every recorded start-time tie with the candidate's ranks (in
  // event order; ties at or past the current limit are replayed anyway).
  // The prefix before a tie is identical by induction, so the tie's
  // contender set is identical too -- only the rank-based pick can differ.
  for (const ScheduleCheckpointLog::StartTie& tie : log.ties) {
    if (tie.event >= limit) break;
    int best = -1;
    Time best_rank = 0;
    bool involves_moved = false;
    for (const int bv : tie.contenders) {
      if (moved_vertex(bv)) {
        // Unreachable while limit <= the moved process's readiness, but be
        // conservative if it ever is.
        involves_moved = true;
        break;
      }
      const int cv = remap(bv);
      const Time r = s.rank[static_cast<std::size_t>(cv)];
      // Same pick rule as the ready queue: max rank, then min vertex id
      // (remapping preserves the relative id order of non-moved vertices).
      if (best < 0 || r > best_rank || (r == best_rank && cv < best)) {
        best = cv;
        best_rank = r;
      }
    }
    if (involves_moved || best != remap(tie.winner)) {
      limit = tie.event;
      break;
    }
  }

  // ---- nearest usable snapshot -----------------------------------------
  const ScheduleSnapshot* snap = nullptr;
  for (auto it = log.snapshots.rbegin(); it != log.snapshots.rend(); ++it) {
    if (it->event_index <= limit) {
      snap = &*it;
      break;
    }
  }

  if (!snap || snap->event_index == 0) {
    s.init_dynamic();
  } else {
    // ---- transplant the snapshot into the candidate's vertex space ------
    const std::size_t cand_total = s.verts.size();
#ifndef NDEBUG
    // The moved process is untouched before the resume point.
    for (int bv = base_first_p; bv < base_p_end; ++bv) {
      assert(!snap->placed[static_cast<std::size_t>(bv)]);
    }
#endif

    s.result.first_copy = s.first_copy;
    s.result.messages = snap->partial.messages;
    s.result.bus_order = snap->partial.bus_order;
    s.result.makespan = snap->partial.makespan;
    if (delta == 0) {
      // Identity remap: take the read-only prefix wholesale instead of
      // copying it element by element (moved copies are unplaced with
      // default slots, and their readiness is re-seeded below).
      s.result.copies = snap->partial.copies;
      s.result.node_order = snap->partial.node_order;
      s.placed = snap->placed;
      s.deps_left = snap->deps_left;
      s.data_ready = snap->data_ready;
    } else {
      s.result.copies.assign(cand_total, ScheduledCopy{});
      s.result.node_order.assign(static_cast<std::size_t>(arch.node_count()),
                                 {});
      for (std::size_t n = 0; n < snap->partial.node_order.size(); ++n) {
        for (int v : snap->partial.node_order[n]) {
          s.result.node_order[n].push_back(remap(v));
        }
      }
      s.placed.assign(cand_total, 0);
      s.deps_left.assign(cand_total, 0);
      s.data_ready.assign(cand_total, 0);
      for (int bv = 0; bv < base_total; ++bv) {
        if (moved_vertex(bv)) continue;
        const std::size_t cv = static_cast<std::size_t>(remap(bv));
        s.placed[cv] = snap->placed[static_cast<std::size_t>(bv)];
        if (s.placed[cv]) {
          s.result.copies[cv] =
              snap->partial.copies[static_cast<std::size_t>(bv)];
        }
        s.deps_left[cv] = snap->deps_left[static_cast<std::size_t>(bv)];
        s.data_ready[cv] = snap->data_ready[static_cast<std::size_t>(bv)];
      }
    }
    // All copies of one process share (deps_left, data_ready): deliveries
    // broadcast to every copy and the predecessor count is independent of
    // the process's own plan.  Seed the candidate's copies from base copy
    // 0, then adjust the moved process's consumers when its copy count
    // changed (one dependency per producer copy; no deliveries from the
    // moved process happened yet).
    const int shared_deps =
        snap->deps_left[static_cast<std::size_t>(base_first_p)];
    const Time shared_ready =
        snap->data_ready[static_cast<std::size_t>(base_first_p)];
    for (int j = 0; j < cand_p_count; ++j) {
      const std::size_t cv = static_cast<std::size_t>(s.vertex_of(moved, j));
      s.deps_left[cv] = shared_deps;
      s.data_ready[cv] = shared_ready;
    }
    if (delta != 0) {
      for (MessageId mid : app.outputs(moved)) {
        const Message& m = app.message(mid);
        const int count = candidate.plan(m.dst).copy_count();
        for (int dj = 0; dj < count; ++dj) {
          s.deps_left[static_cast<std::size_t>(s.vertex_of(m.dst, dj))] +=
              delta;
        }
      }
    }

    s.node_free = snap->node_free;
    s.bus_free = snap->bus_free;
    s.tx_seq = snap->tx_seq;
    s.remaining =
        snap->remaining + (cand_total - static_cast<std::size_t>(base_total));
    s.event = snap->event_index;

    // Ready queue: keep unaffected entries' start keys (move-invariant),
    // stamp each with the *candidate's* rank -- a rank change only breaks
    // future ties, which the resume-point bound already guarantees did not
    // occur in the kept prefix -- and re-derive the moved process's
    // entries with the candidate's mapping and rank.
    std::vector<ReadyEntry> entries;
    entries.reserve(snap->ready_heap.size() +
                    static_cast<std::size_t>(cand_p_count));
    for (const SnapshotReadyEntry& e : snap->ready_heap) {
      if (moved_vertex(e.vertex)) continue;
      const int cv = remap(e.vertex);
      entries.push_back(
          ReadyEntry{e.start, s.rank[static_cast<std::size_t>(cv)], cv});
    }
    if (shared_deps == 0) {
      for (int j = 0; j < cand_p_count; ++j) {
        const int cv = s.vertex_of(moved, j);
        entries.push_back(ReadyEntry{
            s.start_of(cv), s.rank[static_cast<std::size_t>(cv)], cv});
      }
    }
    s.ready.assign(std::move(entries));
    s.txq.assign(snap->tx_heap);

    local.resumed = true;
    local.events_resumed = snap->event_index;
  }

  ListSchedule out = s.run();
  local.events_total = s.event;
  local.events_replayed = s.event - local.events_resumed;
  local.heap_pops = s.heap_pops;
  if (stats) *stats = local;
  return out;
}

}  // namespace ftes
