#include "sched/cond_scheduler.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "fault/recovery.h"
#include "sched/list_scheduler.h"
#include "util/binary_heap.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ftes {

namespace {

/// Static data about one copy, shared by all scenarios.
struct CopyInfo {
  CopyRef ref;
  NodeId node;
  RecoveryParams params;
  int checkpoints = 0;   ///< 0 = pure replica
  int r_cond = 0;        ///< faults a run survives (0 for a pure replica)
  Time release = 0;
  bool frozen = false;
  std::string name;      ///< display: "P1" or "P1(2)"
  Time rank = 0;         ///< list-scheduling priority
  /// Dependency slots in the per-scenario resolved bitmap: one per (input
  /// message, producer copy), one per frozen input message.
  int first_slot = 0;
  int slot_count = 0;
  int first_cond = 0;    ///< cond_ids_ offset of fault indices 1..r_cond+1
  int first_item = 0;    ///< item_key_ offset of attempts 1..r_cond+1
};

/// Static data about one message, shared by all scenarios.
struct MsgInfo {
  bool frozen = false;     ///< transparency respected and message frozen
  bool needs_bus = false;  ///< frozen, or some producer/consumer copy pair
                           ///< sits on different nodes
  int src_first = 0;       ///< global index of producer copy 0
  int src_count = 0;
  int dst_first = 0;       ///< global index of consumer copy 0
  int dst_count = 0;
  int slot = 0;            ///< slot offset within each consumer copy's block
  int first_item = 0;      ///< item_key_ offset: producer copies 0..n-1,
                           ///< then the frozen sync transmission
};

class CondSim {
 public:
  CondSim(const Application& app, const Architecture& arch,
          const PolicyAssignment& pa, const FaultModel& fm,
          const CondScheduleOptions& opts)
      : app_(app), arch_(arch), pa_(pa), fm_(fm), opts_(opts) {
    build_static_info();
  }

  CondScheduleResult run() {
    const std::vector<FaultScenario> scenarios =
        enumerate_scenarios(app_, pa_, fm_.k);
    if (static_cast<int>(scenarios.size()) > opts_.max_scenarios) {
      throw std::length_error("scenario tree exceeds max_scenarios");
    }
    threads_ = resolve_threads(opts_.threads);
    pool_ = opts_.pool ? opts_.pool : &ThreadPool::shared();

    // Register every condition id a scenario can reveal, serially and in
    // scenario order, so the id numbering matches the serial generator and
    // the simulations below can run concurrently with a read-only registry.
    std::vector<int> registered(copies_.size(), 0);
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      if ((s & 1023u) == 0u) throw_if_cancelled();
      register_scenario_conditions(scenarios[s], registered);
    }
    build_condition_lookups();
    build_table_keys();

    CondScheduleResult result;
    // Fixpoint over frozen starts.  Within one iteration the scenarios are
    // independent (they read the same pins), so they simulate in parallel
    // into scenario-ordered slots.
    for (int iter = 0; iter < opts_.max_fixpoint_iterations; ++iter) {
      result.traces.assign(scenarios.size(), ScenarioTrace{});
      bool moved = false;
      parallel_for(*pool_, scenarios.size(), threads_, [&](std::size_t i) {
        // Chunk-granular cancellation point: a deadline fires within one
        // scenario simulation; the partial traces are discarded below.
        if (opts_.cancel && opts_.cancel->poll()) return;
        result.traces[i] = simulate(scenarios[i]);
      });
      throw_if_cancelled();
      // Raise pins to the observed maxima.
      for (const ScenarioTrace& tr : result.traces) {
        for (std::size_t ci = 0; ci < copies_.size(); ++ci) {
          if (!copies_[ci].frozen) continue;
          Time& pin = copy_pins_[ci];
          if (tr.execs[ci].start > pin) {
            pin = tr.execs[ci].start;
            moved = true;
          }
        }
        for (const TxTrace& tx : tr.txs) {
          if (tx.is_condition || !msg_info(tx.msg).frozen) continue;
          Time& pin = msg_pins_[static_cast<std::size_t>(tx.msg.get())];
          if (tx.start > pin) {
            pin = tx.start;
            moved = true;
          }
        }
      }
      if (!moved) break;
      if (iter + 1 == opts_.max_fixpoint_iterations) {
        FTES_LOG(kWarn) << "frozen-start fixpoint did not converge";
      }
    }

    result.scenario_count = static_cast<int>(result.traces.size());
    for (const ScenarioTrace& tr : result.traces) {
      result.wcsl = std::max(result.wcsl, tr.makespan);
    }
    for (std::size_t ci = 0; ci < copies_.size(); ++ci) {
      if (copies_[ci].frozen) {
        result.frozen_starts[copies_[ci].name] = copy_pins_[ci];
      }
    }
    for (std::size_t mi = 0; mi < msgs_.size(); ++mi) {
      // Report pinned frozen message starts alongside process pins.
      if (msgs_[mi].frozen) {
        result.frozen_starts[app_.messages()[mi].name] = msg_pins_[mi];
      }
    }
    build_tables(result);
    result.tables.wcsl = result.wcsl;
    result.tables.scenario_count = result.scenario_count;
    return result;
  }

 private:
  // ---------------------------------------------------------------- setup
  void build_static_info() {
    // Flat (process, copy) -> global copy index via per-process prefix
    // offsets: the simulate() inner loops and the fixpoint pin updates hit
    // this lookup constantly, so no std::map on that path.
    first_copy_.assign(static_cast<std::size_t>(app_.process_count()) + 1, 0);
    for (int i = 0; i < app_.process_count(); ++i) {
      first_copy_[static_cast<std::size_t>(i) + 1] =
          first_copy_[static_cast<std::size_t>(i)] +
          pa_.plan(ProcessId{i}).copy_count();
    }

    msgs_.resize(static_cast<std::size_t>(app_.message_count()));
    frozen_outputs_.resize(static_cast<std::size_t>(app_.process_count()));
    for (int mi = 0; mi < app_.message_count(); ++mi) {
      const Message& m = app_.message(MessageId{mi});
      MsgInfo& info = msgs_[static_cast<std::size_t>(mi)];
      info.frozen = opts_.respect_transparency && m.frozen;
      info.src_first = copy_at(m.src.get(), 0);
      info.src_count = pa_.plan(m.src).copy_count();
      info.dst_first = copy_at(m.dst.get(), 0);
      info.dst_count = pa_.plan(m.dst).copy_count();
      info.needs_bus = info.frozen;
      for (const CopyPlan& s : pa_.plan(m.src).copies) {
        for (const CopyPlan& d : pa_.plan(m.dst).copies) {
          if (s.node != d.node) info.needs_bus = true;
        }
      }
      // Message-id order: frozen messages completed by one commit are
      // emitted in this order.
      if (info.frozen) {
        frozen_outputs_[static_cast<std::size_t>(m.src.get())].push_back(
            MessageId{mi});
      }
    }

    int slots = 0;
    int conds = 0;
    for (int i = 0; i < app_.process_count(); ++i) {
      const ProcessId pid{i};
      const Process& proc = app_.process(pid);
      const ProcessPlan& plan = pa_.plan(pid);
      // Slot layout of one consumer copy: its input messages in input
      // order, each with one slot per producer copy (one if frozen).
      int block = 0;
      for (MessageId mid : app_.inputs(pid)) {
        MsgInfo& info = msg_info(mid);
        info.slot = block;
        block += info.frozen ? 1 : info.src_count;
      }
      for (int j = 0; j < plan.copy_count(); ++j) {
        const CopyPlan& cp = plan.copies[static_cast<std::size_t>(j)];
        CopyInfo info;
        info.ref = CopyRef{pid, j};
        info.node = cp.node;
        info.params =
            RecoveryParams{proc.wcet_on(cp.node), proc.alpha, proc.mu,
                           proc.chi};
        info.checkpoints = cp.checkpoints;
        info.r_cond = cp.checkpoints >= 1 ? cp.recoveries : 0;
        info.release = proc.release;
        info.frozen = opts_.respect_transparency && proc.frozen;
        info.name = plan.copy_count() > 1
                        ? proc.name + "(" + std::to_string(j + 1) + ")"
                        : proc.name;
        info.first_slot = slots;
        info.slot_count = block;
        slots += block;
        info.first_cond = conds;
        conds += info.r_cond + 1;
        assert(copy_at(pid.get(), j) == static_cast<int>(copies_.size()));
        copies_.push_back(info);
      }
    }
    slot_total_ = static_cast<std::size_t>(slots);
    cond_ids_.assign(static_cast<std::size_t>(conds), -1);
    copy_pins_.assign(copies_.size(), 0);
    msg_pins_.assign(msgs_.size(), 0);

    // Priorities: the list scheduler's partial critical path (copies_ uses
    // the same prefix layout).
    const std::vector<Time> rank = copy_priority_ranks(app_, arch_, pa_);
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      copies_[i].rank = rank[i];
    }
  }

  [[nodiscard]] MsgInfo& msg_info(MessageId m) {
    return msgs_[static_cast<std::size_t>(m.get())];
  }
  [[nodiscard]] const MsgInfo& msg_info(MessageId m) const {
    return msgs_[static_cast<std::size_t>(m.get())];
  }

  /// Number of condition values the copy reveals in a run with `faults`
  /// faults: fault indices 1..n, each "true" when that fault struck.
  [[nodiscard]] static int revealed_conditions(const CopyInfo& ci,
                                               int faults) {
    return faults <= ci.r_cond ? std::min(faults + 1, ci.r_cond)
                               : ci.r_cond + 1;
  }

  // ------------------------------------------------------------- scenario
  struct CopyRun {
    bool survived = true;
    int faults = 0;
    int unresolved = 0;
    Time duration = 0;  ///< start -> end (completion or death)
    Time start = 0;
    Time end = 0;
    Time data_ready = 0;
  };

  struct PendingTx {
    TxTrace tx;          ///< ready/sender/meta filled; start/finish pending
    int seq = 0;         ///< deterministic tie-break
  };
  struct PendingTxLess {
    bool operator()(const PendingTx& a, const PendingTx& b) const {
      if (a.tx.ready != b.tx.ready) return a.tx.ready < b.tx.ready;
      return a.seq < b.seq;
    }
  };

  /// Simulates one scenario.  Per event the cost is a scan of the ready
  /// list (copies whose inputs are all resolved) plus a log-time pop of the
  /// pending transmissions; dependencies resolve in O(1) through the
  /// resolved bitmap, and a frozen message is emitted by the commit that
  /// completes its producers.
  ScenarioTrace simulate(const FaultScenario& scenario) const {
    ScenarioTrace trace;
    trace.scenario = scenario;

    std::vector<CopyRun> runs(copies_.size());
    for (const auto& [ref, count] : scenario.hits()) {
      runs[static_cast<std::size_t>(copy_at(ref.process.get(), ref.copy))]
          .faults = count;
    }
    std::vector<int> ready;
    std::size_t reveal_count = 0;
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      const CopyInfo& ci = copies_[i];
      CopyRun& run = runs[i];
      reveal_count +=
          static_cast<std::size_t>(revealed_conditions(ci, run.faults));
      run.survived = run.faults <= ci.r_cond;
      if (run.survived) {
        run.duration =
            ci.checkpoints >= 1
                ? checkpointed_exec_time(ci.params, ci.checkpoints, run.faults)
                : replica_exec_time(ci.params);
      } else {
        run.duration = fault_occurrence_offset(ci.params,
                                               std::max(ci.checkpoints, 1),
                                               ci.r_cond + 1) +
                       ci.params.alpha;
      }
      run.unresolved = ci.slot_count;
      if (run.unresolved == 0) ready.push_back(static_cast<int>(i));
    }

    trace.reveals.reserve(reveal_count);
    std::vector<char> resolved(slot_total_, 0);
    auto resolve = [&](int dst_copy, MessageId mid, int src_copy, Time at) {
      const CopyInfo& dst = copies_[static_cast<std::size_t>(dst_copy)];
      char& done = resolved[static_cast<std::size_t>(
          dst.first_slot + msg_info(mid).slot + std::max(src_copy, 0))];
      if (done != 0) return;
      done = 1;
      CopyRun& run = runs[static_cast<std::size_t>(dst_copy)];
      run.data_ready = std::max(run.data_ready, at);
      assert(run.unresolved > 0);
      if (--run.unresolved == 0) ready.push_back(dst_copy);
    };
    BinaryMinHeap<PendingTx, PendingTxLess> pending;
    int tx_seq = 0;
    std::vector<int> committed_copies(
        static_cast<std::size_t>(app_.process_count()), 0);

    std::vector<Time> node_free(static_cast<std::size_t>(arch_.node_count()),
                                0);
    Time bus_free = 0;
    std::size_t committed = 0;

    // Frozen messages: emitted once all producer copies committed.
    auto emit_frozen = [&](MessageId mid) {
      const MsgInfo& info = msg_info(mid);
      Time earliest = kTimeInfinity;
      for (int src = info.src_first; src < info.src_first + info.src_count;
           ++src) {
        const CopyRun& run = runs[static_cast<std::size_t>(src)];
        if (run.survived) earliest = std::min(earliest, run.end);
      }
      if (earliest == kTimeInfinity) {
        throw std::logic_error(
            "all producer copies of a frozen message died (inadmissible "
            "scenario reached a frozen sync)");
      }
      PendingTx tx;
      tx.tx.msg = mid;
      tx.tx.src_copy = -1;
      tx.tx.sender = copies_[static_cast<std::size_t>(info.src_first)].node;
      tx.tx.ready =
          std::max(earliest, msg_pins_[static_cast<std::size_t>(mid.get())]);
      tx.seq = ++tx_seq;
      pending.push(tx);
    };

    // Resolution policy: local consumers of a copy resolve at the copy's
    // end (completion or locally observed death); remote consumers resolve
    // at the data transmission's end (survivor) or at the death broadcast's
    // end (dead copy).  resolve() is idempotent per triple.
    auto commit_copy = [&](std::size_t i, Time start) {
      const CopyInfo& ci = copies_[i];
      CopyRun& run = runs[i];
      run.start = start;
      run.end = start + run.duration;
      node_free[static_cast<std::size_t>(ci.node.get())] = run.end;
      ++committed;

      // Condition reveals, as derived in DESIGN.md / recovery.h: fault j
      // is revealed "true" where it strikes; the first fault index that
      // does not strike is revealed "false" at completion, if the copy
      // could have recovered from it.
      const int n = std::max(ci.checkpoints, 1);
      const int reveals = revealed_conditions(ci, run.faults);
      for (int j = 1; j <= reveals; ++j) {
        const bool value = j <= run.faults;
        const Time at =
            start + (value ? fault_occurrence_offset(ci.params, n, j)
                           : run.duration);
        const int cond = cond_ids_[static_cast<std::size_t>(
            ci.first_cond + j - 1)];
        assert(cond >= 0);  // registered by register_scenario_conditions
        trace.reveals.push_back(Reveal{cond, value, at});
        if (!opts_.schedule_condition_broadcasts) continue;
        PendingTx tx;
        tx.tx.is_condition = true;
        tx.tx.cond_id = cond;
        tx.tx.value = value;
        tx.tx.sender = ci.node;
        tx.tx.ready = at;
        tx.seq = ++tx_seq;
        pending.push(tx);
      }

      for (MessageId mid : app_.outputs(ci.ref.process)) {
        const MsgInfo& info = msg_info(mid);
        if (info.frozen) continue;
        for (int dst = info.dst_first; dst < info.dst_first + info.dst_count;
             ++dst) {
          if (copies_[static_cast<std::size_t>(dst)].node == ci.node) {
            resolve(dst, mid, ci.ref.copy, run.end);
          } else if (!run.survived && !opts_.schedule_condition_broadcasts) {
            // Idealized signalling: remote consumers learn the death
            // instantly (no death broadcast will be scheduled).
            resolve(dst, mid, ci.ref.copy, run.end);
          }
        }
        if (run.survived && info.needs_bus) {
          PendingTx tx;
          tx.tx.msg = mid;
          tx.tx.src_copy = ci.ref.copy;
          tx.tx.sender = ci.node;
          tx.tx.ready = run.end;
          tx.seq = ++tx_seq;
          pending.push(tx);
        }
      }

      const std::size_t pid = static_cast<std::size_t>(ci.ref.process.get());
      if (++committed_copies[pid] == pa_.plan(ci.ref.process).copy_count()) {
        for (MessageId mid : frozen_outputs_[pid]) emit_frozen(mid);
      }
    };

    // Death broadcasts double as remote death knowledge: when a condition
    // transmission that encodes "fault r+1" of a dead copy commits, remote
    // consumers of that copy's messages resolve.
    auto on_condition_committed = [&](const TxTrace& tx) {
      const std::size_t ci = static_cast<std::size_t>(
          cond_copy_[static_cast<std::size_t>(tx.cond_id)]);
      const CopyInfo& info = copies_[ci];
      if (runs[ci].survived) return;
      if (cond_index_[static_cast<std::size_t>(tx.cond_id)] !=
          info.r_cond + 1) {
        return;
      }
      for (MessageId mid : app_.outputs(info.ref.process)) {
        const MsgInfo& m = msg_info(mid);
        if (m.frozen) continue;
        for (int dst = m.dst_first; dst < m.dst_first + m.dst_count; ++dst) {
          if (copies_[static_cast<std::size_t>(dst)].node != info.node) {
            resolve(dst, mid, info.ref.copy, tx.finish);
          }
        }
      }
    };

    // ---- main event loop -------------------------------------------------
    while (committed < copies_.size() || !pending.empty()) {
      // Earliest startable copy: start, then rank descending, then copy
      // index ascending.
      Time best_start = kTimeInfinity;
      int best = -1;
      std::size_t best_pos = 0;
      for (std::size_t r = 0; r < ready.size(); ++r) {
        const int i = ready[r];
        const CopyInfo& ci = copies_[static_cast<std::size_t>(i)];
        Time start = std::max({runs[static_cast<std::size_t>(i)].data_ready,
                               ci.release,
                               node_free[static_cast<std::size_t>(
                                   ci.node.get())]});
        if (ci.frozen) {
          start = std::max(start, copy_pins_[static_cast<std::size_t>(i)]);
        }
        const bool wins =
            start < best_start ||
            (start == best_start && best >= 0 &&
             (ci.rank > copies_[static_cast<std::size_t>(best)].rank ||
              (ci.rank == copies_[static_cast<std::size_t>(best)].rank &&
               i < best)));
        if (wins) {
          best_start = start;
          best = i;
          best_pos = r;
        }
      }

      // Earliest pending transmission (ready, then emission order).
      if (!pending.empty() &&
          (best < 0 || pending.top().tx.ready <= best_start)) {
        TxTrace tx = pending.top().tx;
        pending.pop();
        const std::int64_t size =
            tx.is_condition ? 1 : app_.message(tx.msg).size;
        const Time ready_at = std::max(tx.ready, bus_free);
        tx.start = arch_.bus().next_slot_start(tx.sender, ready_at);
        tx.finish =
            arch_.bus().transmission_finish(tx.sender, ready_at, size);
        bus_free = tx.finish;
        if (tx.is_condition) {
          on_condition_committed(tx);
        } else {
          // Frozen sync resolves every consumer copy; data resolves the
          // remote consumers at the transmission's end.
          const MsgInfo& info = msg_info(tx.msg);
          for (int dst = info.dst_first;
               dst < info.dst_first + info.dst_count; ++dst) {
            if (tx.src_copy < 0 ||
                copies_[static_cast<std::size_t>(dst)].node != tx.sender) {
              resolve(dst, tx.msg, tx.src_copy, tx.finish);
            }
          }
        }
        trace.txs.push_back(tx);
        continue;
      }

      if (best < 0) throw std::logic_error("conditional scheduler deadlock");
      ready[best_pos] = ready.back();
      ready.pop_back();
      commit_copy(static_cast<std::size_t>(best), best_start);
    }

    // Collect execution records and the makespan.
    trace.execs.reserve(copies_.size());
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      const CopyInfo& ci = copies_[i];
      const CopyRun& run = runs[i];
      ExecTrace e;
      e.copy = ci.ref;
      e.start = run.start;
      e.end = run.end;
      e.died = !run.survived;
      e.faults = run.faults;
      const int n = std::max(ci.checkpoints, 1);
      const int recoveries = run.survived ? run.faults : ci.r_cond;
      e.attempt_starts.reserve(static_cast<std::size_t>(recoveries) + 1);
      e.attempt_starts.push_back(run.start);
      for (int a = 1; a <= recoveries; ++a) {
        e.attempt_starts.push_back(run.start +
                                   recovery_start_offset(ci.params, n, a));
      }
      trace.execs.push_back(std::move(e));
      if (run.survived) trace.makespan = std::max(trace.makespan, run.end);
    }
    for (const TxTrace& tx : trace.txs) {
      if (!tx.is_condition) trace.makespan = std::max(trace.makespan, tx.finish);
    }
    std::sort(trace.reveals.begin(), trace.reveals.end(),
              [](const Reveal& a, const Reveal& b) { return a.at < b.at; });
    return trace;
  }

  /// Registers, in deterministic copy / fault-index order, every condition
  /// id the given scenario reveals (the same sequence a lazy registration
  /// inside simulate() would produce).  `registered[ci]` is the highest
  /// fault index registered so far for copy ci: a copy's ids are always
  /// registered as a prefix 1..n, so only the indices above it are new.
  void register_scenario_conditions(const FaultScenario& scenario,
                                    std::vector<int>& registered) {
    auto hit = scenario.hits().begin();
    for (std::size_t ci = 0; ci < copies_.size(); ++ci) {
      const CopyInfo& info = copies_[ci];
      int faults = 0;
      if (hit != scenario.hits().end() && hit->first == info.ref) {
        faults = hit->second;
        ++hit;
      }
      const int last = revealed_conditions(info, faults);
      for (int j = registered[ci] + 1; j <= last; ++j) {
        (void)registry_.id(info.ref, j, info.name);
      }
      registered[ci] = std::max(registered[ci], last);
    }
  }

  /// Fills the read-only lookups simulate() uses once every id exists:
  /// (copy, fault index) -> id, and id -> (copy, fault index).
  void build_condition_lookups() {
    cond_copy_.assign(static_cast<std::size_t>(registry_.size()), -1);
    cond_index_.assign(static_cast<std::size_t>(registry_.size()), 0);
    for (int id = 0; id < registry_.size(); ++id) {
      const CopyRef ref = registry_.copy_of(id);
      const int ci = copy_at(ref.process.get(), ref.copy);
      const int j = registry_.fault_index_of(id);
      cond_ids_[static_cast<std::size_t>(
          copies_[static_cast<std::size_t>(ci)].first_cond + j - 1)] = id;
      cond_copy_[static_cast<std::size_t>(id)] = ci;
      cond_index_[static_cast<std::size_t>(id)] = j;
    }
  }

  // --------------------------------------------------------------- tables
  /// Where a table activation goes: node (-1 for the bus), row, label.
  struct TableKey {
    int node = -1;
    std::string row;
    std::string label;
  };

  /// Interns every activation a trace can produce -- (node or -1 for the
  /// bus, row, label) -- as an integer key whose order is the string
  /// order, so the fold never builds or compares strings.
  void build_table_keys() {
    std::vector<TableKey> items;
    for (CopyInfo& ci : copies_) {
      ci.first_item = static_cast<int>(items.size());
      for (int a = 1; a <= ci.r_cond + 1; ++a) {
        items.push_back(TableKey{ci.node.get(), ci.name,
                                 ci.name + "/" + std::to_string(a)});
      }
    }
    for (std::size_t mi = 0; mi < msgs_.size(); ++mi) {
      MsgInfo& info = msgs_[mi];
      const std::string& name = app_.messages()[mi].name;
      info.first_item = static_cast<int>(items.size());
      for (int c = 0; c < info.src_count; ++c) {
        items.push_back(TableKey{-1, name,
                                 info.src_count > 1
                                     ? name + "(" + std::to_string(c + 1) + ")"
                                     : name});
      }
      items.push_back(TableKey{-1, name, name});  // frozen sync
    }
    first_cond_item_ = static_cast<int>(items.size());
    for (int id = 0; id < registry_.size(); ++id) {
      items.push_back(TableKey{-1, registry_.label(id), ""});
    }

    std::vector<int> order(items.size());
    std::iota(order.begin(), order.end(), 0);
    auto less = [&](int a, int b) {
      const TableKey& x = items[static_cast<std::size_t>(a)];
      const TableKey& y = items[static_cast<std::size_t>(b)];
      return std::tie(x.node, x.row, x.label) <
             std::tie(y.node, y.row, y.label);
    };
    std::sort(order.begin(), order.end(), less);
    item_key_.assign(items.size(), -1);
    for (std::size_t r = 0; r < order.size(); ++r) {
      const int item = order[r];
      if (r == 0 || less(order[r - 1], item)) {
        keys_.push_back(items[static_cast<std::size_t>(item)]);
      }
      item_key_[static_cast<std::size_t>(item)] =
          static_cast<int>(keys_.size()) - 1;
    }
  }

  /// One table column: activation key, start, and the intersection of the
  /// guards of every scenario that produces it.
  struct Column {
    int key = -1;
    Time start = 0;
    Guard guard;
  };
  struct ColumnId {
    int key;
    Time start;
    friend bool operator==(const ColumnId& a, const ColumnId& b) {
      return a.key == b.key && a.start == b.start;
    }
  };
  struct ColumnIdHash {
    std::size_t operator()(const ColumnId& c) const {
      return std::hash<std::uint64_t>{}(
          static_cast<std::uint64_t>(c.start) * 0x9e3779b97f4a7c15ULL ^
          static_cast<std::uint64_t>(c.key));
    }
  };
  /// Columns folded from a run of traces, in first-seen order.
  struct ColumnFold {
    std::unordered_map<ColumnId, std::size_t, ColumnIdHash> index;
    std::vector<Column> columns;

    void add(int key, Time start, const Guard& guard) {
      const auto [it, inserted] =
          index.emplace(ColumnId{key, start}, columns.size());
      if (inserted) {
        columns.push_back(Column{key, start, guard});
        return;
      }
      Guard& folded = columns[it->second].guard;
      if (!folded.literals().empty()) folded.intersect_with(guard);
    }
  };

  /// Folds one trace's activations.  A record's guard is the conjunction
  /// of the values revealed by its time: with the reveals sorted by time
  /// that is a prefix, so the trace builds one guard per prefix length
  /// (into `prefixes`, reused across traces) and a record finds its own by
  /// binary search.
  void fold_trace(const ScenarioTrace& tr, std::vector<Guard>& prefixes,
                  ColumnFold& fold) const {
    prefixes.resize(tr.reveals.size() + 1);
    prefixes[0] = Guard{};
    for (std::size_t r = 0; r < tr.reveals.size(); ++r) {
      prefixes[r + 1] = prefixes[r];
      prefixes[r + 1].add(Literal{tr.reveals[r].cond_id, tr.reveals[r].value});
    }
    auto guard_at = [&](Time t) -> const Guard& {
      const auto it = std::upper_bound(
          tr.reveals.begin(), tr.reveals.end(), t,
          [](Time v, const Reveal& r) { return v < r.at; });
      return prefixes[static_cast<std::size_t>(it - tr.reveals.begin())];
    };
    for (std::size_t ci = 0; ci < tr.execs.size(); ++ci) {
      const ExecTrace& e = tr.execs[ci];
      for (std::size_t a = 0; a < e.attempt_starts.size(); ++a) {
        const Time t = e.attempt_starts[a];
        fold.add(item_key_[static_cast<std::size_t>(copies_[ci].first_item) +
                           a],
                 t, guard_at(t));
      }
    }
    for (const TxTrace& tx : tr.txs) {
      const int item =
          tx.is_condition
              ? first_cond_item_ + tx.cond_id
              : msg_info(tx.msg).first_item +
                    (tx.src_copy >= 0 ? tx.src_copy
                                      : msg_info(tx.msg).src_count);
      fold.add(item_key_[static_cast<std::size_t>(item)], tx.start,
               guard_at(tx.ready));
    }
  }

  void build_tables(CondScheduleResult& result) {
    ScheduleTables& tables = result.tables;
    tables.node_rows.assign(static_cast<std::size_t>(arch_.node_count()),
                            TableRows{});

    // Traces fold in contiguous chunks, one per thread; the chunk folds
    // then merge in chunk order.  Guard intersection is commutative and
    // the columns are sorted below, so the tables do not depend on the
    // thread count.
    const std::size_t n = result.traces.size();
    const std::size_t chunks =
        std::min(n, static_cast<std::size_t>(std::max(threads_, 1)));
    std::vector<ColumnFold> folds(std::max<std::size_t>(chunks, 1));
    parallel_for(*pool_, chunks, threads_, [&](std::size_t c) {
      std::vector<Guard> prefixes;
      for (std::size_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i) {
        if (opts_.cancel && opts_.cancel->poll()) return;
        fold_trace(result.traces[i], prefixes, folds[c]);
      }
    });
    throw_if_cancelled();
    ColumnFold& fold = folds.front();
    for (std::size_t c = 1; c < folds.size(); ++c) {
      for (const Column& col : folds[c].columns) {
        fold.add(col.key, col.start, col.guard);
      }
    }

    // Key order is (node, row, label) string order, so each row receives
    // its entries ordered by (label, start) before the sort by start.
    std::vector<Column>& columns = fold.columns;
    std::sort(columns.begin(), columns.end(),
              [](const Column& a, const Column& b) {
                return a.key != b.key ? a.key < b.key : a.start < b.start;
              });
    for (Column& col : columns) {
      const TableKey& key = keys_[static_cast<std::size_t>(col.key)];
      TableRows& rows =
          key.node < 0 ? tables.bus_rows
                       : tables.node_rows[static_cast<std::size_t>(key.node)];
      rows[key.row].push_back(
          TableEntry{std::move(col.guard), col.start, key.label});
    }
    auto sort_rows = [](TableRows& rows) {
      for (auto& [name, entries] : rows) {
        std::sort(entries.begin(), entries.end(),
                  [](const TableEntry& x, const TableEntry& y) {
                    return x.start < y.start;
                  });
      }
    };
    for (TableRows& rows : tables.node_rows) sort_rows(rows);
    sort_rows(tables.bus_rows);
    tables.conds = registry_;
  }

  /// Joins the scenario workers' chunk-granular polls: any observed
  /// cancellation abandons the whole generation (partial tables are wrong,
  /// not partial results).
  void throw_if_cancelled() const {
    if (opts_.cancel && opts_.cancel->poll()) {
      throw CancelledError("conditional scheduling cancelled");
    }
  }

  const Application& app_;
  const Architecture& arch_;
  const PolicyAssignment& pa_;
  const FaultModel& fm_;
  const CondScheduleOptions& opts_;
  int threads_ = 1;
  ThreadPool* pool_ = nullptr;

  /// O(1) (process, copy) -> global copy index (prefix offsets).
  [[nodiscard]] int copy_at(std::int32_t pid, int copy) const {
    return first_copy_[static_cast<std::size_t>(pid)] + copy;
  }

  std::vector<CopyInfo> copies_;
  std::vector<int> first_copy_;
  std::vector<MsgInfo> msgs_;
  /// Per process, its frozen output messages in message-id order.
  std::vector<std::vector<MessageId>> frozen_outputs_;
  std::size_t slot_total_ = 0;
  std::vector<Time> copy_pins_;
  std::vector<Time> msg_pins_;
  CondRegistry registry_;
  std::vector<int> cond_ids_;    ///< (copy first_cond + j - 1) -> id or -1
  std::vector<int> cond_copy_;   ///< id -> global copy index
  std::vector<int> cond_index_;  ///< id -> fault index j
  // Table items (copy attempts, then per message its producer copies and
  // frozen sync, then condition broadcasts) and their interned keys.
  std::vector<int> item_key_;
  int first_cond_item_ = 0;
  std::vector<TableKey> keys_;
};

}  // namespace

CondScheduleResult conditional_schedule(const Application& app,
                                        const Architecture& arch,
                                        const PolicyAssignment& assignment,
                                        const FaultModel& model,
                                        const CondScheduleOptions& options) {
  assignment.validate(app, model);
  CondSim sim(app, arch, assignment, model, options);
  return sim.run();
}

}  // namespace ftes
