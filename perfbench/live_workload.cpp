// live128: 128 real services on loopback UDP, 16 groups of 8, hosted on a
// `runtime::loop_pool` in batched mode with a 400 ms detection bound (the
// fig14 shape), under scripted round-robin leader kills.
//
// Every group is pinned to one loop, so its members, its probe timer and
// its kill/restart timers all run on that loop's thread: probes call
// `leader()` on the services' own thread, never across threads. The
// driving thread only builds the cluster, sleeps through the measured
// phase and reads the results back after the loops' timers are cancelled.
#include <unistd.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/random.hpp"
#include "fd/fd_manager.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/loop_transport.hpp"
#include "service/service.hpp"

namespace perfbench {
namespace {

using namespace omega;

constexpr std::size_t kServices = 128;
constexpr std::size_t kGroupSize = 8;
constexpr std::size_t kGroups = kServices / kGroupSize;
constexpr duration kDetection = msec(400);
constexpr duration kProbePeriod = msec(10);
constexpr duration kKillPeriod = msec(100);
constexpr duration kRestartAfter = msec(500);
/// Two live self-declared leaders for longer than this fail the run.
constexpr double kStabilization = 5.0;

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }
process_id pid(std::size_t i) { return process_id{static_cast<std::uint32_t>(i)}; }
group_id gid(std::size_t g) { return group_id{static_cast<std::uint32_t>(g + 1)}; }

/// Per-loop delivery timing of the traced run (loop thread only).
struct deliver_stats {
  std::uint64_t count[kind_count] = {};
  double seconds[kind_count] = {};
};

/// Traced runs put this between the service and its socket: sends pass
/// through untouched (the encoded payload is forwarded by reference) after
/// a copy into the loop's frame sampler, and receives are timed per wire
/// kind around the service's handler.
class timed_transport final : public net::transport {
 public:
  timed_transport(runtime::loop_udp_transport& inner, frame_sampler& frames,
                  deliver_stats& deliver)
      : inner_(inner), frames_(frames), deliver_(deliver) {}

  void send(node_id dst, std::span<const std::byte> payload) override {
    frames_.on_frame(payload);
    inner_.send(dst, payload);
  }
  void send(node_id dst, net::shared_payload payload) override {
    frames_.on_frame(payload.bytes());
    inner_.send(dst, std::move(payload));
  }
  void multicast(std::span<const node_id> dsts, net::shared_payload payload) override {
    for (std::size_t i = 0; i < dsts.size(); ++i) frames_.on_frame(payload.bytes());
    inner_.multicast(dsts, std::move(payload));
  }
  void multicast(std::span<const node_id> dsts,
                 std::span<const std::byte> payload) override {
    for (std::size_t i = 0; i < dsts.size(); ++i) frames_.on_frame(payload);
    inner_.multicast(dsts, payload);
  }
  [[nodiscard]] net::payload_pool& pool() override { return inner_.pool(); }
  [[nodiscard]] node_id local_node() const override { return inner_.local_node(); }
  void set_receive_handler(net::receive_handler handler) override {
    if (!handler) {
      inner_.set_receive_handler({});
      return;
    }
    inner_.set_receive_handler(
        [this, h = std::move(handler)](const net::datagram& d) {
          const auto kind = proto::peek_kind(d.payload);
          const auto t0 = clock::now();
          h(d);
          if (kind) {
            const std::size_t k = kind_index(*kind);
            ++deliver_.count[k];
            deliver_.seconds[k] += since(t0);
          }
        });
  }

 private:
  runtime::loop_udp_transport& inner_;
  frame_sampler& frames_;
  deliver_stats& deliver_;
};

struct member {
  std::unique_ptr<runtime::loop_udp_transport> socket;
  std::unique_ptr<timed_transport> timed;
  std::unique_ptr<service::leader_election_service> svc;
  incarnation inc = 0;
  timer_id restart_timer = no_timer;
};

struct group_state {
  std::size_t index = 0;
  std::vector<time_point> last_change;  // per member, loop clock
  bool episode_open = false;
  bool kill_pending = false;
  process_id victim;
  time_point episode_start{};
  double episode_wall = 0.0;  // span-log time of the kill
  std::uint64_t episode_id = 0;
  std::optional<process_id> last_agreed;
  dual_leader_watch dual;
};

/// Everything one loop's timers touch. Written only on that loop's thread
/// while the phase runs; read by the main thread after `sync` cancelled them.
struct loop_state {
  runtime::event_loop* loop = nullptr;
  std::vector<group_state> groups;
  frame_sampler frames;
  deliver_stats deliver;
  /// `frames` and `deliver` as they stood when the measured phase ended
  /// (the services keep running on the loop afterwards).
  frame_sampler frames_at_end;
  deliver_stats deliver_at_end;
  time_point t0{};
  std::uint64_t tick = 0;
  timer_id probe_timer = no_timer;
  std::vector<std::pair<time_point, std::size_t>> kills;  // (due, local group)
  std::size_t next_kill = 0;
  bool measuring = false;
  std::uint64_t probes = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t leader_changes = 0;
  std::uint64_t kills_done = 0;
  std::vector<double> reelection;
  std::vector<double> late_us;
  std::vector<std::string> violations;
  std::uint64_t failed = 0;
  std::vector<span> spans;  // traced run: probes and failover episodes
};

class live_cluster {
 public:
  live_cluster(std::size_t loops, bool traced, std::size_t min_failovers)
      : traced_(traced), min_failovers_(min_failovers), pool_(loops), states_(loops) {
    for (std::size_t l = 0; l < loops; ++l) states_[l].loop = &pool_.at(l);
  }
  live_cluster(const live_cluster&) = delete;
  live_cluster& operator=(const live_cluster&) = delete;
  ~live_cluster() { teardown(); }

  /// Binds every socket, starts every service and waits until each group
  /// agrees on a leader. Returns false if that never happened.
  bool build() {
    members_.resize(kServices);
    for (std::size_t i = 0; i < kServices; ++i) {
      const std::size_t g = i / kGroupSize;
      runtime::udp_roster bind_roster;
      for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
        bind_roster[nid(j)] = runtime::udp_endpoint{"127.0.0.1", 0};
      }
      members_[i].socket =
          std::make_unique<runtime::loop_udp_transport>(loop_of(g), nid(i), bind_roster);
    }
    // All group states first: the services' leader observers keep
    // references into these vectors.
    for (std::size_t g = 0; g < kGroups; ++g) {
      group_state gs;
      gs.index = g;
      gs.last_change.assign(kGroupSize, time_point{});
      states_[g % states_.size()].groups.push_back(std::move(gs));
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      runtime::udp_roster roster;
      for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
        roster[nid(j)] = runtime::udp_endpoint{"127.0.0.1", members_[j].socket->bound_port()};
      }
      loop_of(g).sync([&] {
        for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
          members_[j].socket->set_roster(roster);
          start_service(j);
        }
      });
    }
    return wait_agreed(sec(20));
  }

  /// Arms the probe and kill timers on every loop, sleeps through the
  /// phase and returns its wall time (the schedule plus the convergence of
  /// the episodes still open at its end).
  double measure(double seconds, std::uint64_t seed) {
    rng schedule(seed * 0x94d049bb133111ebULL + 5);
    const std::size_t rotation = static_cast<std::size_t>(schedule.uniform_below(kGroups));
    const double kill_span = seconds - std::min(2.0, seconds / 2);
    const auto kill_count =
        static_cast<std::size_t>(std::max(0.0, kill_span / to_seconds(kKillPeriod)));
    std::vector<std::vector<std::pair<duration, std::size_t>>> plan(states_.size());
    for (std::size_t k = 0; k < kill_count; ++k) {
      const std::size_t g = (rotation + k) % kGroups;
      const duration at = kKillPeriod * static_cast<std::int64_t>(k) +
                          from_seconds(schedule.uniform(0.0, to_seconds(kKillPeriod) / 2));
      plan[g % states_.size()].emplace_back(at, g / states_.size());
    }

    stats0_ = pool_.total_stats();
    cpu0_ = cpu_seconds();
    const auto wall0 = clock::now();
    for (std::size_t l = 0; l < states_.size(); ++l) {
      loop_state& ls = states_[l];
      ls.loop->sync([&, l] {
        ls.t0 = ls.loop->now();
        ls.kills.clear();
        for (const auto& [at, local] : plan[l]) ls.kills.emplace_back(ls.t0 + at, local);
        ls.measuring = true;
        arm_probe(ls);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    // Wait (bounded) for the episodes the last kills opened.
    const auto deadline = clock::now() + std::chrono::seconds(10);
    while (open_episodes_.load() > 0 && clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double wall = since(wall0);
    cpu_s_ = cpu_seconds() - cpu0_;
    stats1_ = pool_.total_stats();
    for (loop_state& ls : states_) {
      ls.loop->sync([&] {
        ls.measuring = false;
        ls.loop->cancel(ls.probe_timer);
        ls.probe_timer = no_timer;
        ls.frames_at_end = ls.frames;
        ls.deliver_at_end = ls.deliver;
      });
    }
    wall_s_ = wall;
    return wall;
  }

  /// Restarts the victims still down, then every group must agree on one
  /// live leader.
  void final_check(run_output& out) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      loop_of(g).sync([&] {
        for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
          member& m = members_[j];
          if (m.restart_timer != no_timer) {
            loop_of(g).cancel(m.restart_timer);
            m.restart_timer = no_timer;
          }
          if (!m.svc) start_service(j);
        }
      });
    }
    if (!wait_agreed(sec(20))) {
      out.violation("not every group agrees on one live leader at the end");
    }
  }

  void end_to_end(run_output& out, double setup_s) {
    collect(out);
    const runtime::loop_stats d = delta();
    report_reelection(out, reelection_, min_failovers_);
    out.set("leader_unavailable_frac",
            probes_ ? static_cast<double>(unavailable_) / static_cast<double>(probes_) : 0.0,
            "ratio");
    out.set("setup_s", setup_s, "s");
    out.set("wall_s", wall_s_, "s");
    out.set("cpu_us_per_msg",
            d.datagrams_received ? cpu_s_ * 1e6 / static_cast<double>(d.datagrams_received)
                                 : 0.0,
            "us");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    const double node_s = wall_s_ * static_cast<double>(kServices);
    out.set("msgs_per_node_s", static_cast<double>(d.datagrams_sent) / node_s, "1/s");
    // Same framing overhead per datagram as the simulator's accounting.
    out.set("bytes_per_node_s",
            static_cast<double>(d.bytes_sent + net::wire_overhead_bytes * d.datagrams_sent) /
                node_s, "B/s");
  }

  void per_layer(run_output& out) {
    collect(out);
    require_failovers(out, reelection_.size(), min_failovers_);
    out.set("runtime.timer_late_us_p50", percentile(late_us_, 0.5), "us");
    out.set("runtime.timer_late_us_p99", percentile(late_us_, 0.99), "us");
    const runtime::loop_stats d = delta();
    const double moved = static_cast<double>(d.datagrams_sent + d.datagrams_received);
    out.set("runtime.syscalls_per_msg",
            moved > 0 ? static_cast<double>(d.syscalls()) / moved : 0.0, "ratio");
    out.set("runtime.msgs_per_sendmmsg",
            d.sendmmsg_calls ? static_cast<double>(d.datagrams_sent) /
                                   static_cast<double>(d.sendmmsg_calls)
                             : 0.0,
            "ratio");
    out.set("runtime.msgs_per_recvmmsg",
            d.recvmmsg_calls ? static_cast<double>(d.datagrams_received) /
                                   static_cast<double>(d.recvmmsg_calls)
                             : 0.0,
            "ratio");
    out.set("runtime.epoll_waits_per_s", static_cast<double>(d.epoll_waits) / wall_s_, "1/s");
    std::uint64_t drops = 0, errors = 0;
    for (std::size_t g = 0; g < kGroups; ++g) {
      loop_of(g).sync([&] {
        for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
          drops += members_[j].socket->stats().send_queue_drops;
          errors += members_[j].socket->stats().send_errors();
        }
      });
    }
    out.set("runtime.queue_drops", static_cast<double>(drops), "count");
    out.set("runtime.send_errors", static_cast<double>(errors), "count");

    // Merge the per-loop samplers and delivery timers.
    deliver_stats del;
    for (const loop_state& ls : states_) {
      for (std::size_t k = 0; k < kind_count; ++k) {
        del.count[k] += ls.deliver_at_end.count[k];
        del.seconds[k] += ls.deliver_at_end.seconds[k];
      }
    }
    for (std::size_t k = 0; k < kind_count; ++k) {
      const std::string name(proto::to_string(all_kinds[k]));
      out.set("net.delivered." + name, static_cast<double>(del.count[k]), "count");
      out.set("net.deliver_s." + name, del.seconds[k], "s");
      out.set("net.deliver_ns." + name,
              del.count[k] ? del.seconds[k] * 1e9 / static_cast<double>(del.count[k]) : 0.0,
              "ns");
    }
    std::uint64_t sent[kind_count] = {};
    for (const loop_state& ls : states_) {
      for (std::size_t k = 0; k < kind_count; ++k) {
        sent[k] += ls.frames_at_end.sent(all_kinds[k]);
      }
    }
    using proto::msg_kind;
    const auto per_s = [&](msg_kind k) {
      return static_cast<double>(sent[kind_index(k)]) / wall_s_;
    };
    const double n = static_cast<double>(kServices);
    out.set("fd.alive_per_node_s", per_s(msg_kind::alive) / n, "1/s");
    out.set("fd.rate_request_per_s", per_s(msg_kind::rate_request), "1/s");
    out.set("membership.hello_per_node_s", per_s(msg_kind::hello) / n, "1/s");
    out.set("membership.hello_ack_per_s", per_s(msg_kind::hello_ack), "1/s");
    out.set("election.accuse_per_s", per_s(msg_kind::accuse), "1/s");
    std::uint64_t changes = 0;
    for (const loop_state& ls : states_) changes += ls.leader_changes;
    out.set("election.leader_changes", static_cast<double>(changes), "count");

    // Replays after the phase: frames from every loop, FD inputs read on
    // each service's own loop.
    for (const loop_state& ls : states_) {
      merged_frames_.absorb(ls.frames_at_end);
      for (const span& s : ls.spans) spans_.add(s.name, s.start_s, s.end_s, s.episode);
    }
    replay_proto_and_membership(out, merged_frames_, spans_);
    std::vector<resolve_input> inputs;
    for (std::size_t g = 0; g < kGroups; ++g) {
      loop_of(g).sync([&] {
        for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
          if (!members_[j].svc) continue;
          fd::fd_manager& fd = members_[j].svc->failure_detector();
          for (const auto& m : members_[j].svc->members(gid(g)).members_view()) {
            if (m.node == nid(j) || !fd.is_trusted(gid(g), m.node)) continue;
            fd::qos_spec qos;
            qos.detection_time = kDetection;
            inputs.push_back({qos, fd.link_quality(m.node)});
          }
        }
      });
    }
    // The FD re-solves once per reconfig interval (1 s).
    replay_fd_resolve(out, inputs, wall_s_, wall_s_, spans_);
  }

  [[nodiscard]] span_log& spans() { return spans_; }

 private:
  runtime::event_loop& loop_of(std::size_t group) { return pool_.at(group); }

  /// Loop thread of `j`'s group.
  void start_service(std::size_t j) {
    const std::size_t g = j / kGroupSize;
    member& m = members_[j];
    loop_state& ls = states_[g % states_.size()];
    net::transport* t = m.socket.get();
    if (traced_) {
      if (!m.timed) m.timed = std::make_unique<timed_transport>(*m.socket, ls.frames, ls.deliver);
      t = m.timed.get();
    }
    service::service_config cfg;
    cfg.self = nid(j);
    cfg.inc = ++m.inc;
    for (std::size_t k = g * kGroupSize; k < (g + 1) * kGroupSize; ++k) cfg.roster.push_back(nid(k));
    cfg.alg = election::algorithm::omega_lc;
    runtime::event_loop& loop = loop_of(g);
    m.svc = std::make_unique<service::leader_election_service>(loop, loop, *t, cfg);
    m.svc->register_process(pid(j));
    service::join_options jo;
    jo.qos.detection_time = kDetection;
    m.svc->join_group(pid(j), gid(g), jo);
    group_state& gs = ls.groups[g / states_.size()];
    const std::size_t slot = j % kGroupSize;
    m.svc->set_leader_observer([&gs, &loop, slot](group_id, std::optional<process_id>) {
      gs.last_change[slot] = loop.now();
    });
  }

  leader_poll poll(std::size_t g) {
    poll_tally b;
    for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
      if (!members_[j].svc) continue;
      const auto answer = members_[j].svc->leader(gid(g));
      const bool alive =
          answer && answer->value() < kServices && members_[answer->value()].svc;
      b.add(pid(j), answer, alive);
    }
    return b.finish();
  }

  /// Polls each group on its own loop until all agree (setup and the final
  /// check; the measured phase uses the loops' own probe timers).
  bool wait_agreed(duration limit) {
    const auto deadline = clock::now() + std::chrono::nanoseconds(limit);
    while (clock::now() < deadline) {
      bool all = true;
      for (std::size_t g = 0; g < kGroups && all; ++g) {
        loop_of(g).sync([&] { all = poll(g).unanimous; });
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  /// Open-loop probe generator: fires at fixed deadlines t0 + k * period
  /// whatever happened before, so a stalled loop shows up as lateness.
  void arm_probe(loop_state& ls) {
    const time_point due = ls.t0 + kProbePeriod * static_cast<std::int64_t>(ls.tick);
    ls.probe_timer = ls.loop->schedule_at(due, [this, &ls, due] {
      if (!ls.measuring) return;
      const time_point now = ls.loop->now();
      ls.late_us.push_back(to_seconds(now - due) * 1e6);
      probe_tick(ls, now);
      ++ls.tick;
      arm_probe(ls);
    });
  }

  void probe_tick(loop_state& ls, time_point now) {
    const double p0 = traced_ ? spans_.now() : 0.0;
    while (ls.next_kill < ls.kills.size() && ls.kills[ls.next_kill].first <= now) {
      ls.groups[ls.kills[ls.next_kill].second].kill_pending = true;
      ++ls.next_kill;
    }
    const double now_s = to_seconds(now);
    for (group_state& gs : ls.groups) {
      const leader_poll r = poll(gs.index);
      ls.probes += r.answers;
      ls.unavailable += r.answers - r.ok;
      if (r.unanimous && r.agreed && gs.last_agreed && *gs.last_agreed != *r.agreed) {
        ++ls.leader_changes;
      }
      if (r.unanimous) gs.last_agreed = r.agreed;
      if (gs.dual.observe(r.self_claims, now_s, kStabilization)) {
        ++ls.failed;
        ls.violations.push_back("group " + std::to_string(gs.index) +
                                " has two live self-declared leaders");
      }
      if (gs.episode_open && r.unanimous && r.agreed && *r.agreed != gs.victim) {
        time_point closed = gs.episode_start;
        for (std::size_t s = 0; s < kGroupSize; ++s) {
          if (members_[gs.index * kGroupSize + s].svc) {
            closed = std::max(closed, gs.last_change[s]);
          }
        }
        ls.reelection.push_back(to_seconds(closed - gs.episode_start));
        if (traced_) {
          ls.spans.push_back({"failover", gs.episode_wall, spans_.now(), gs.episode_id, 0, false});
        }
        gs.episode_open = false;
        --open_episodes_;
      }
      if (gs.kill_pending && !gs.episode_open && r.unanimous && r.agreed) {
        gs.kill_pending = false;
        kill(ls, gs, *r.agreed, now);
      }
    }
    if (traced_) ls.spans.push_back({"probe", p0, spans_.now(), 0, 0, false});
  }

  /// Crashes the victim's service (no goodbyes; its socket stays bound and
  /// drops what arrives) and schedules its restart.
  void kill(loop_state& ls, group_state& gs, process_id victim, time_point now) {
    const std::size_t j = victim.value();
    members_[j].svc.reset();
    gs.episode_open = true;
    gs.victim = victim;
    gs.episode_start = now;
    gs.episode_wall = traced_ ? spans_.now() : 0.0;
    gs.episode_id = ++episode_ids_;
    ++open_episodes_;
    ++ls.kills_done;
    members_[j].restart_timer = ls.loop->schedule_after(kRestartAfter, [this, j] {
      members_[j].restart_timer = no_timer;
      start_service(j);
    });
  }

  /// Operation counts, violations and the samples every mode reports on.
  void collect(run_output& out) {
    std::uint64_t kills = 0;
    for (const loop_state& ls : states_) {
      out.attempted += ls.probes;
      out.failed += ls.failed;
      probes_ += ls.probes;
      unavailable_ += ls.unavailable;
      kills += ls.kills_done;
      reelection_.insert(reelection_.end(), ls.reelection.begin(), ls.reelection.end());
      late_us_.insert(late_us_.end(), ls.late_us.begin(), ls.late_us.end());
      for (const auto& v : ls.violations) out.violation(v);
    }
    if (open_episodes_.load() > 0) {
      out.violation(std::to_string(open_episodes_.load()) +
                    " failovers did not converge within the measured phase");
      out.failed += static_cast<std::uint64_t>(open_episodes_.load());
    }
    out.notes.push_back("kills " + std::to_string(kills));
    out.notes.push_back("probe generator lateness p50 " +
                        std::to_string(percentile(late_us_, 0.5)) + " us, p99 " +
                        std::to_string(percentile(late_us_, 0.99)) + " us over " +
                        std::to_string(late_us_.size()) + " ticks");
  }

  runtime::loop_stats delta() const {
    runtime::loop_stats d = stats1_;
    d.epoll_waits -= stats0_.epoll_waits;
    d.eventfd_reads -= stats0_.eventfd_reads;
    d.sendmmsg_calls -= stats0_.sendmmsg_calls;
    d.sendto_calls -= stats0_.sendto_calls;
    d.recvmmsg_calls -= stats0_.recvmmsg_calls;
    d.recvfrom_calls -= stats0_.recvfrom_calls;
    d.datagrams_sent -= stats0_.datagrams_sent;
    d.datagrams_received -= stats0_.datagrams_received;
    d.bytes_sent -= stats0_.bytes_sent;
    d.bytes_received -= stats0_.bytes_received;
    return d;
  }

  void teardown() {
    for (std::size_t g = 0; g < members_.size() / kGroupSize; ++g) {
      loop_of(g).sync([&] {
        for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
          member& m = members_[j];
          if (m.restart_timer != no_timer) loop_of(g).cancel(m.restart_timer);
          m.svc.reset();
          m.timed.reset();
          m.socket.reset();
        }
      });
    }
    for (loop_state& ls : states_) {
      if (ls.probe_timer != no_timer) {
        ls.loop->sync([&] { ls.loop->cancel(ls.probe_timer); });
      }
    }
    members_.clear();
    pool_.stop_all();
  }

  bool traced_;
  std::size_t min_failovers_;
  runtime::loop_pool pool_;
  std::vector<loop_state> states_;
  std::vector<member> members_;
  std::atomic<int> open_episodes_{0};
  std::atomic<std::uint64_t> episode_ids_{0};
  runtime::loop_stats stats0_, stats1_;
  double cpu0_ = 0.0, cpu_s_ = 0.0, wall_s_ = 0.0;
  std::uint64_t probes_ = 0, unavailable_ = 0;
  std::vector<double> reelection_, late_us_;
  frame_sampler merged_frames_;
  span_log spans_;
};

std::size_t loop_count() {
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<std::size_t>(std::clamp<long>(cores, 1, 4));
}

}  // namespace

run_output run_live128(const options& opt) {
  run_output out;
  const std::size_t loops = loop_count();
  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<live_cluster> cluster;
    for (int i = 0, n = opt.quick ? 1 : 3; i < n; ++i) {
      cluster.reset();
      const auto t0 = clock::now();
      cluster = std::make_unique<live_cluster>(loops, false, opt.min_failovers);
      if (!cluster->build()) out.violation("groups did not agree after start-up");
      setups.push_back(since(t0));
    }
    cluster->measure(opt.seconds, opt.seed);
    cluster->end_to_end(out, median(setups));
    cluster->final_check(out);
    return out;
  }
  live_cluster cluster(loops, true, opt.min_failovers);
  if (!cluster.build()) out.violation("groups did not agree after start-up");
  cluster.measure(opt.seconds, opt.seed);
  cluster.per_layer(out);
  cluster.final_check(out);
  cluster.spans().write(opt.span_path);
  return out;
}

}  // namespace perfbench
