// The two simulator workloads: hier300_churn and flat12_lossy_adaptive.
//
// The benchmark drives `harness::experiment` from outside: it advances
// `simulator::run_until` in fixed steps and, between steps, applies its own
// seeded churn and leader-kill schedule through `crash_node`/`recover_node`
// and probes every live service's `leader(group)`. It schedules nothing on
// the simulator, so the protocol sees exactly the inputs a scripted run of
// the same schedule would.
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "harness/experiment.hpp"

namespace perfbench {
namespace {

using namespace omega;

/// Interactive QoS of the fig12 hierarchy (every tier): 1 s detection
/// bound, one mistake per 2 h, 99.99% query accuracy.
fd::qos_spec fig12_qos() {
  fd::qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence =
      std::chrono::duration_cast<duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  return qos;
}

struct workload_def {
  harness::scenario sc;
  /// Simulated seconds of measured phase per `--seconds` of budget,
  /// sized so the phase takes about that much wall time on a 4-core box
  /// with the heap on huge pages (see run.py).
  double virtual_per_second = 1.0;
  duration warmup = sec(30);
  duration kill_period = sec(1);
  duration restart_after = sec(3);
  /// Every Nth kill targets the top-tier (global) leader; 0 = flat.
  std::size_t global_every = 0;
  /// Apply the paper's churn (up Exp(600 s), down Exp(5 s)) per node.
  bool churn = false;
  int setups = 3;
};

workload_def hier300_def() {
  workload_def w;
  harness::scenario& sc = w.sc;
  sc.nodes = 300;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.qos = fig12_qos();
  // The benchmark drives the churn itself (the harness only starts its own
  // churn injector inside experiment::run, which this benchmark does not use).
  sc.churn = harness::churn_profile::none();
  const std::size_t regions = 30;  // regions of 10
  sc.hierarchy = harness::hierarchy_profile::three_tier(regions, regions / 5);
  sc.hierarchy.scoped_hello = true;
  sc.hierarchy.global_qos = fig12_qos();
  w.virtual_per_second = 4.0;
  w.warmup = sec(8);
  w.kill_period = msec(300);
  w.restart_after = sec(3);
  w.global_every = 10;
  w.churn = true;
  w.setups = 3;
  return w;
}

workload_def flat12_def(double seconds) {
  workload_def w;
  harness::scenario& sc = w.sc;
  sc.nodes = 12;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.churn = harness::churn_profile::none();
  sc.adaptive.mode = adaptive::tuning_mode::adaptive;
  sc.adaptive.retuner.objective = adaptive::tuning_objective::min_detection;
  w.virtual_per_second = 320.0;
  w.warmup = sec(60);
  w.kill_period = sec(12);
  w.restart_after = sec(5);
  w.setups = 9;
  // LAN -> lossy(100 ms, 0.1) -> LAN over the measured phase's thirds.
  const duration start = w.warmup + sec(10);
  const duration third = from_seconds(seconds * w.virtual_per_second / 3.0);
  sc.link_phases.push_back({start + third, net::link_profile::lossy(msec(100), 0.1)});
  sc.link_phases.push_back({start + 2 * third, net::link_profile::lan()});
  return w;
}

struct group_def {
  group_id id;
  std::size_t tier = 0;
  std::vector<node_id> members;
};

struct episode {
  std::size_t group = 0;
  process_id victim;
  time_point start{};
  std::uint64_t id = 0;
  double wall_start = 0.0;
};

enum class down_reason { none, churn, kill };

class sim_run {
 public:
  sim_run(const workload_def& def, const options& opt, bool traced)
      : def_(def), opt_(opt), traced_(traced) {}

  /// Builds the cluster, warms it up and waits until every group agrees.
  /// Returns the wall time it took.
  double setup() {
    exp_.reset();
    const auto t0 = clock::now();
    harness::scenario sc = def_.sc;
    sc.seed = opt_.seed * 0x9e3779b97f4a7c15ULL + 17;
    sc.trace = traced_;
    sc.profile_sim = traced_;
    exp_ = std::make_unique<harness::experiment>(sc);
    build_groups();
    auto& sim = exp_->simulator();
    sim.run_until(time_origin + def_.warmup);
    if (!settle(sec(120))) {
      out_.violation("cluster did not agree on leaders after warm-up");
    }
    for (std::size_t n = 0; n < def_.sc.nodes; ++n) watch(node_id{static_cast<std::uint32_t>(n)});
    return since(t0);
  }

  /// The measured phase; returns its wall time.
  double measure(double span_s) {
    auto& sim = exp_->simulator();
    auto& net = exp_->network();
    rng schedule(opt_.seed * 0xbf58476d1ce4e5b9ULL + 3);
    const time_point t0 = sim.now();
    const time_point t_end = t0 + from_seconds(span_s);
    // Kills stop early enough for the last episodes to close in the phase.
    const time_point last_kill = t_end - std::min<duration>(sec(8), (t_end - t0) / 2);
    time_point next_kill = t0 + from_seconds(schedule.uniform(0.0, to_seconds(def_.kill_period)));
    std::size_t kills = 0;
    region_cursor_ = static_cast<std::size_t>(schedule.uniform_below(groups_.size()));

    down_.assign(def_.sc.nodes, down_reason::none);
    restart_at_.assign(def_.sc.nodes, time_point::max());
    churn_at_.assign(def_.sc.nodes, time_point::max());
    rng churn_rng = schedule.split();
    if (def_.churn) {
      for (std::size_t n = 0; n < def_.sc.nodes; ++n) {
        churn_at_[n] = t0 + churn_rng.exponential(sec(600));
      }
    }

    net.reset_traffic();
    if (traced_) {
      net.set_send_tap([this](node_id, node_id, std::span<const std::byte> b) {
        frames_.on_frame(b);
      });
      snapshot_profile(profile_base_);
    }
    exp_->group().begin(t0);
    if (auto* hm = exp_->hier_metrics()) hm->begin(t0);
    events_base_ = sim.events_executed();
    retunes_base_ = exp_->total_retunes();
    const duration step = msec(10);
    const int probe_every = 10;  // 100 ms of virtual time
    const double cpu0 = cpu_seconds();
    const auto wall0 = clock::now();
    int step_no = 0;
    double chunk_start = spans_.now();
    for (time_point t = t0; t < t_end; t += step, ++step_no) {
      // Boundary work at virtual time t.
      for (std::size_t n = 0; n < def_.sc.nodes; ++n) {
        const node_id node{static_cast<std::uint32_t>(n)};
        if (restart_at_[n] <= t) {
          restart_at_[n] = time_point::max();
          down_[n] = down_reason::none;
          exp_->recover_node(node);
          watch(node);
          if (def_.churn) churn_at_[n] = t + churn_rng.exponential(sec(600));
        } else if (churn_at_[n] <= t) {
          churn_at_[n] = time_point::max();
          if (down_[n] == down_reason::none) {
            exp_->crash_node(node);
            down_[n] = down_reason::churn;
            restart_at_[n] = t + churn_rng.exponential(sec(5));
          }
        }
      }
      check_episodes();
      if (step_no % probe_every == 0) {
        probe(t);
        if (traced_ && step_no % (10 * probe_every) == 0) {
          const double now_s = spans_.now();
          spans_.add("sim.chunk", chunk_start, now_s);
          chunk_start = now_s;
        }
      }
      if (t >= next_kill && t <= last_kill && try_kill(t, kills)) {
        ++kills;
        next_kill = t0 + def_.kill_period * static_cast<std::int64_t>(kills) +
                    from_seconds(schedule.uniform(0.0, to_seconds(def_.kill_period) / 2));
      }
      const double r0 = traced_ ? spans_.now() : 0.0;
      sim.run_until(t + step);
      if (traced_) sim_s_ += spans_.now() - r0;
    }
    // Traced-run forensics (post-processing of closed episodes) is not
    // part of the phase.
    const double wall = since(wall0) - forensics_s_;
    cpu_s_ = cpu_seconds() - cpu0 - forensics_s_;
    span_s_ = to_seconds(sim.now() - t0);
    events_ = sim.events_executed() - events_base_;
    retunes_ = exp_->total_retunes() - retunes_base_;
    exp_->group().finish(sim.now());
    if (auto* hm = exp_->hier_metrics()) hm->finish(sim.now());
    if (traced_) {
      net.set_send_tap({});
      spans_.add("sim.chunk", chunk_start, spans_.now());
    }
    for (const episode& e : open_) {
      out_.violation("failover of group " + std::to_string(e.group) +
                     " did not converge within the measured phase");
      ++out_.failed;
    }
    out_.attempted = probes_;
    out_.notes.push_back("kills " + std::to_string(kills));
    return wall;
  }

  /// After the phase: every node back up, then every group must agree on
  /// one live leader.
  void final_check() {
    for (std::size_t n = 0; n < def_.sc.nodes; ++n) {
      if (down_[n] != down_reason::none) {
        exp_->recover_node(node_id{static_cast<std::uint32_t>(n)});
      }
    }
    if (!settle(sec(60))) {
      out_.violation("not every group agrees on one live leader at the end");
    }
  }

  void end_to_end(double setup_s, double wall_s) {
    std::uint64_t sent = 0, bytes = 0, delivered = 0;
    for (std::size_t n = 0; n < def_.sc.nodes; ++n) {
      const auto& t = exp_->network().traffic(node_id{static_cast<std::uint32_t>(n)});
      sent += t.datagrams_sent;
      bytes += t.bytes_sent;
      delivered += t.datagrams_received;
    }
    const double node_s = span_s_ * static_cast<double>(def_.sc.nodes);
    out_.set("setup_s", setup_s, "s");
    out_.set("wall_s", wall_s, "s");
    out_.set("cpu_us_per_msg",
             delivered ? cpu_s_ * 1e6 / static_cast<double>(delivered) : 0.0, "us");
    out_.set("peak_rss_mb", peak_rss_mb(), "MB");
    report_reelection(out_, reelection_, opt_.min_failovers);
    out_.set("leader_unavailable_frac",
             probes_ ? static_cast<double>(unavailable_) / static_cast<double>(probes_)
                     : 0.0,
             "ratio");
    out_.set("msgs_per_node_s", static_cast<double>(sent) / node_s, "1/s");
    out_.set("bytes_per_node_s", static_cast<double>(bytes) / node_s, "B/s");
    out_.notes.push_back("unjustified_demotions " +
                         std::to_string(unjustified_demotions()));
  }

  void per_layer(double wall_s, double untraced_wall_s) {
    const double span = span_s_;
    const double nodes = static_cast<double>(def_.sc.nodes);
    out_.set("sim.events", static_cast<double>(events_), "count");
    out_.set("sim.events_per_s", sim_s_ > 0 ? static_cast<double>(events_) / sim_s_ : 0.0,
             "1/s");
    std::vector<double> prof;
    snapshot_profile(prof);
    double deliver_total = 0.0;
    for (std::size_t k = 0; k < kind_count; ++k) {
      const std::string name(proto::to_string(all_kinds[k]));
      const double count = prof[2 * k] - profile_base_[2 * k];
      const double secs = prof[2 * k + 1] - profile_base_[2 * k + 1];
      deliver_total += secs;
      out_.set("net.delivered." + name, count, "count");
      out_.set("net.deliver_s." + name, secs, "s");
      out_.set("net.deliver_ns." + name, count > 0 ? secs * 1e9 / count : 0.0, "ns");
    }
    out_.set("sim.timer_s", sim_s_ - deliver_total, "s");
    out_.notes.push_back("traced wall " + std::to_string(wall_s) + " s = run_until " +
                         std::to_string(sim_s_) + " s (delivery " +
                         std::to_string(deliver_total) + " s + timers/kernel " +
                         std::to_string(sim_s_ - deliver_total) + " s) + probes " +
                         std::to_string(wall_s - sim_s_) + " s");
    using proto::msg_kind;
    out_.set("fd.alive_per_node_s",
             static_cast<double>(frames_.sent(msg_kind::alive)) / nodes / span, "1/s");
    out_.set("fd.rate_request_per_s",
             static_cast<double>(frames_.sent(msg_kind::rate_request)) / span, "1/s");
    out_.set("membership.hello_per_node_s",
             static_cast<double>(frames_.sent(msg_kind::hello)) / nodes / span, "1/s");
    out_.set("membership.hello_ack_per_s",
             static_cast<double>(frames_.sent(msg_kind::hello_ack)) / span, "1/s");
    out_.set("election.accuse_per_s",
             static_cast<double>(frames_.sent(msg_kind::accuse)) / span, "1/s");
    out_.set("election.leader_changes", static_cast<double>(leader_changes_), "count");
    out_.set("election.unjustified_demotions_per_h",
             static_cast<double>(unjustified_demotions()) / (span / 3600.0), "1/h");
    out_.set("failover.detection_s", median(detection_), "s");
    out_.set("failover.dissemination_s", median(dissemination_), "s");
    out_.set("failover.election_s", median(election_), "s");
    if (def_.sc.adaptive.mode == adaptive::tuning_mode::adaptive) {
      out_.set("adaptive.retunes_per_node_h",
               static_cast<double>(retunes_) / nodes / (span / 3600.0), "1/h");
    }
    out_.set("obs.trace_overhead",
             untraced_wall_s > 0 ? wall_s / untraced_wall_s - 1.0 : 0.0, "ratio");

    // Layer replays, after the measured phase, on pure functions and fresh
    // objects only.
    replay_proto_and_membership(out_, frames_, spans_);
    std::vector<resolve_input> inputs;
    for (std::size_t n = 0; n < def_.sc.nodes; ++n) {
      const node_id node{static_cast<std::uint32_t>(n)};
      if (!exp_->node_up(node)) continue;
      service::leader_election_service* svc = exp_->node_service(node);
      fd::fd_manager& fd = svc->failure_detector();
      for (const group_def& g : groups_) {
        if (!is_member(g, node)) continue;
        const fd::qos_spec& qos = g.tier == 0 ? def_.sc.qos : def_.sc.hierarchy.global_qos;
        for (const auto& m : svc->members(g.id).members_view()) {
          if (m.node == node || !fd.is_trusted(g.id, m.node)) continue;
          inputs.push_back({qos, fd.link_quality(m.node)});
        }
      }
    }
    // The FD re-solves once per reconfig interval (1 s of simulated time).
    replay_fd_resolve(out_, inputs, span, wall_s, spans_);
  }

  run_output& out() { return out_; }
  span_log& spans() { return spans_; }

 private:
  void build_groups() {
    groups_.clear();
    const std::size_t n = def_.sc.nodes;
    if (const auto* topo = exp_->topo()) {
      for (std::size_t t = 0; t < topo->tiers(); ++t) {
        for (std::size_t i = 0; i < topo->groups_in_tier(t); ++i) {
          group_def g{topo->tier_group(t, i), t, {}};
          for (std::size_t j = 0; j < n; ++j) {
            const node_id node{static_cast<std::uint32_t>(j)};
            if (topo->group_index(node, t) == i) g.members.push_back(node);
          }
          groups_.push_back(std::move(g));
        }
      }
    } else {
      group_def g{group_id{1}, 0, {}};
      for (std::size_t j = 0; j < n; ++j) g.members.push_back(node_id{static_cast<std::uint32_t>(j)});
      groups_.push_back(std::move(g));
    }
    gindex_.clear();
    for (std::size_t i = 0; i < groups_.size(); ++i) gindex_[groups_[i].id] = i;
    last_change_.assign(n, std::vector<time_point>(groups_.size(), time_point{}));
    last_agreed_.assign(groups_.size(), std::nullopt);
    dual_.assign(groups_.size(), dual_leader_watch{});
    in_episode_.assign(groups_.size(), false);
  }

  /// Records, per (node, group), the virtual time of the node's last
  /// leader-view change (the service's leader observer; read-only hook).
  void watch(node_id node) {
    if (!exp_->node_up(node)) return;
    exp_->node_service(node)->set_leader_observer(
        [this, node](group_id g, std::optional<process_id>) {
          const auto it = gindex_.find(g);
          if (it != gindex_.end()) {
            last_change_[node.value()][it->second] = exp_->simulator().now();
          }
        });
  }

  [[nodiscard]] bool is_member(const group_def& g, node_id node) const {
    return std::binary_search(g.members.begin(), g.members.end(), node,
                              [](node_id a, node_id b) { return a.value() < b.value(); });
  }

  leader_poll poll(const group_def& g) const {
    return poll_sim_group(*exp_, g.id, g.members);
  }

  bool settle(duration limit) {
    auto& sim = exp_->simulator();
    const time_point until = sim.now() + limit;
    while (true) {
      bool all = true;
      for (const group_def& g : groups_) {
        if (!poll(g).unanimous) {
          all = false;
          break;
        }
      }
      if (all) return true;
      if (sim.now() >= until) return false;
      sim.run_until(sim.now() + msec(50));
    }
  }

  void probe(time_point t) {
    const double now_s = to_seconds(t);
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      const leader_poll r = poll(groups_[i]);
      probes_ += r.answers;
      unavailable_ += r.answers - r.ok;
      if (r.unanimous && r.agreed && last_agreed_[i] && *last_agreed_[i] != *r.agreed) {
        ++leader_changes_;
      }
      if (r.unanimous) last_agreed_[i] = r.agreed;
      if (dual_[i].observe(r.self_claims, now_s, kStabilization)) {
        ++out_.failed;
        out_.violation("group " + std::to_string(i) +
                       " has two live self-declared leaders for more than " +
                       std::to_string(kStabilization) + " s");
      }
    }
  }

  /// Kills the agreed leader of the next eligible group.
  bool try_kill(time_point t, std::size_t kill_no) {
    std::optional<std::size_t> target;
    const bool global = def_.global_every > 0 && kill_no % def_.global_every == 0;
    if (global || groups_.size() == 1) {
      target = groups_.size() - 1;  // the top tier is last
    } else {
      const std::size_t regions = exp_->topo()->groups_in_tier(0);
      for (std::size_t k = 0; k < regions && !target; ++k) {
        const std::size_t g = (region_cursor_ + k) % regions;
        if (!in_episode_[g] && poll(groups_[g]).unanimous) target = g;
      }
      if (target) region_cursor_ = *target + 1;
    }
    if (!target || in_episode_[*target]) return false;
    const leader_poll r = poll(groups_[*target]);
    if (!r.unanimous || !r.agreed) return false;
    const process_id victim = *r.agreed;
    const node_id node{victim.value()};
    // One episode per group the victim leads (a global leader also leads
    // its zone and region).
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      if (in_episode_[i]) continue;
      const leader_poll gi = i == *target ? r : poll(groups_[i]);
      if (gi.unanimous && gi.agreed == victim) {
        in_episode_[i] = true;
        open_.push_back({i, victim, t, ++episode_ids_, traced_ ? spans_.now() : 0.0});
      }
    }
    exp_->crash_node(node);
    down_[node.value()] = down_reason::kill;
    restart_at_[node.value()] = t + def_.restart_after;
    return true;
  }

  void check_episodes() {
    for (std::size_t k = 0; k < open_.size();) {
      const episode& e = open_[k];
      const leader_poll r = poll(groups_[e.group]);
      if (r.unanimous && r.agreed && *r.agreed != e.victim) {
        // The exact virtual time the last member adopted the successor.
        time_point closed = e.start;
        for (const node_id m : groups_[e.group].members) {
          if (exp_->node_up(m)) closed = std::max(closed, last_change_[m.value()][e.group]);
        }
        reelection_.push_back(to_seconds(closed - e.start));
        if (traced_) attribute(e, closed, *r.agreed);
        in_episode_[e.group] = false;
        open_[k] = open_.back();
        open_.pop_back();
      } else {
        ++k;
      }
    }
  }

  /// Failover forensics on a bounded sample of episodes (the merged trace
  /// of a 300-node cluster is expensive to rebuild per episode).
  void attribute(const episode& e, time_point end, process_id successor) {
    const double f0 = spans_.now();
    spans_.add("failover", e.wall_start, f0, e.id);
    if (detection_.size() < kMaxForensics) {
      const obs::outage_budget b = exp_->attribute_outage(
          node_id{e.victim.value()}, e.start, end, successor);
      detection_.push_back(b.detection_s);
      dissemination_.push_back(b.dissemination_s);
      election_.push_back(b.election_s);
      // The episode on the simulated timeline, its phases as children.
      const double s = to_seconds(e.start);
      const std::uint64_t root =
          spans_.add("failover.sim", s, to_seconds(end), e.id, 0, true);
      double at = s;
      for (const auto& [phase, secs] : {std::pair{"detection", b.detection_s},
                                        std::pair{"dissemination", b.dissemination_s},
                                        std::pair{"election", b.election_s}}) {
        spans_.add(phase, at, at + secs, e.id, root, true);
        at += secs;
      }
    }
    const double f1 = spans_.now();
    spans_.add("forensics", f0, f1, e.id);
    forensics_s_ += f1 - f0;
  }

  [[nodiscard]] std::uint64_t unjustified_demotions() const {
    std::uint64_t total = exp_->group().unjustified_demotions();
    if (const auto* hm = exp_->hier_metrics()) {
      for (std::size_t r = 0; r < hm->regions(); ++r) {
        total += hm->region(r).unjustified_demotions();
      }
    }
    return total;
  }

  /// (count, sum) of the sim profiler's per-kind handler histograms.
  void snapshot_profile(std::vector<double>& into) {
    into.assign(2 * kind_count, 0.0);
    if (!traced_) return;
    auto& reg = exp_->sim_registry();
    for (std::size_t k = 0; k < kind_count; ++k) {
      auto& h = reg.get_histogram("omega_sim_handler_seconds",
                                  {{"kind", std::string(proto::to_string(all_kinds[k]))}},
                                  {1e-7, 5e-7, 1e-6, 5e-6, 2e-5, 1e-4, 1e-3, 1e-2});
      into[2 * k] = static_cast<double>(h.count());
      into[2 * k + 1] = h.sum();
    }
  }

  static constexpr double kStabilization = 10.0;
  static constexpr std::size_t kMaxForensics = 40;

  const workload_def& def_;
  const options& opt_;
  bool traced_;
  std::unique_ptr<harness::experiment> exp_;
  std::vector<group_def> groups_;
  std::unordered_map<group_id, std::size_t> gindex_;
  std::vector<std::vector<time_point>> last_change_;
  std::vector<std::optional<process_id>> last_agreed_;
  std::vector<dual_leader_watch> dual_;
  std::vector<bool> in_episode_;
  std::vector<episode> open_;
  std::uint64_t episode_ids_ = 0;
  std::size_t region_cursor_ = 0;
  std::vector<down_reason> down_;
  std::vector<time_point> restart_at_;
  std::vector<time_point> churn_at_;

  run_output out_;
  span_log spans_;
  frame_sampler frames_;
  std::vector<double> reelection_;
  std::vector<double> detection_, dissemination_, election_;
  std::vector<double> profile_base_;
  std::uint64_t probes_ = 0;
  std::uint64_t unavailable_ = 0;
  std::uint64_t leader_changes_ = 0;
  std::uint64_t events_base_ = 0, events_ = 0;
  std::uint64_t retunes_base_ = 0, retunes_ = 0;
  double cpu_s_ = 0.0;
  double span_s_ = 0.0;
  double sim_s_ = 0.0;
  double forensics_s_ = 0.0;
};

run_output run_sim(const workload_def& def, const options& opt) {
  const double span_s = opt.seconds * def.virtual_per_second;
  if (!opt.trace) {
    sim_run run(def, opt, false);
    std::vector<double> setups;
    const int n = opt.quick ? 1 : def.setups;
    for (int i = 0; i < n; ++i) setups.push_back(run.setup());
    const double wall = run.measure(span_s);
    // Before final_check: its recovery and settling are not the phase.
    run.end_to_end(median(setups), wall);
    run.final_check();
    return std::move(run.out());
  }
  // Traced: the same seed untraced first (the overhead reference), then
  // with the profiler, send tap, trace rings and spans on.
  double untraced_wall = 0.0;
  {
    sim_run untraced(def, opt, false);
    untraced.setup();
    untraced_wall = untraced.measure(span_s);
  }
  sim_run run(def, opt, true);
  run.setup();
  const double wall = run.measure(span_s);
  run.per_layer(wall, untraced_wall);
  run.final_check();
  run.spans().write(opt.span_path);
  return std::move(run.out());
}

}  // namespace

leader_poll poll_sim_group(harness::experiment& exp, group_id group,
                           const std::vector<node_id>& members) {
  poll_tally b;
  const std::size_t nodes = exp.network().node_count();
  for (const node_id node : members) {
    if (!exp.node_up(node)) continue;
    const auto answer = exp.node_service(node)->leader(group);
    // The harness runs pid i on node i.
    const bool alive =
        answer && answer->value() < nodes && exp.node_up(node_id{answer->value()});
    b.add(process_id{node.value()}, answer, alive);
  }
  return b.finish();
}

run_output run_hier300_churn(const options& opt) { return run_sim(hier300_def(), opt); }

run_output run_flat12_lossy_adaptive(const options& opt) {
  return run_sim(flat12_def(opt.seconds), opt);
}

}  // namespace perfbench
