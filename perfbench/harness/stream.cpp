// stream-epochs: the serving path in one process. Each epoch:
//   1. a mutation batch arrives, half as bin1 kMBatch frames and half as
//      JSON mutate lines;
//   2. both are decoded and appended to a MutationLog, which is sealed;
//   3. the coordinator applies the batch with IncrementalEngine::apply_epoch
//      over a DynGraph, for SSSP from a reachable source and for PageRank;
//   4. the applied records ship as kRepRecord frames to a replica in the
//      same process, which decodes them and replays them with replay_epoch;
//   5. a fixed set of point queries is answered from both sides.
// A round is a fixed sequence of epochs from the base graph; every fourth
// epoch deletes edges and raises weights, so the eligibility gate sends SSSP
// down its cold path, and the compaction threshold is set so compaction runs
// twice per round. Between rounds both sides are rebuilt from the base graph
// (untimed), so every round does the same work.

#include <cmath>
#include <memory>
#include <unordered_map>

#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "analysis/static_eligibility.hpp"
#include "checks.hpp"
#include "dyn/dyn_graph.hpp"
#include "dyn/eligibility_gate.hpp"
#include "dyn/incremental.hpp"
#include "dyn/mutation_log.hpp"
#include "dyn/replication.hpp"
#include "dyn/wire.hpp"
#include "graph/generators.hpp"
#include "ladder.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ndg::EdgeId;
using ndg::VertexId;
namespace dyn = ndg::dyn;

constexpr std::size_t kThreads = 2;
constexpr float kEps = 1e-3f;
constexpr std::size_t kEpochsPerRound = 8;
constexpr std::size_t kMutsPerFrame = 64;

/// An epoch is cold for SSSP iff it deletes edges or raises weights.
constexpr bool cold_epoch(std::size_t i) { return i % 4 == 3; }

std::uint64_t key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// The benchmark's own weighted edge set, kept apart from DynGraph: it
/// generates valid mutations and rebuilds the reference graphs.
class EdgeSet {
 public:
  void insert(std::uint64_t k, float w) {
    pos_[k] = {w, keys_.size()};
    keys_.push_back(k);
  }
  void erase(std::uint64_t k) {
    const std::size_t i = pos_.at(k).index;
    keys_[i] = keys_.back();
    pos_.at(keys_[i]).index = i;
    keys_.pop_back();
    pos_.erase(k);
  }
  [[nodiscard]] bool contains(std::uint64_t k) const { return pos_.count(k) > 0; }
  [[nodiscard]] float weight(std::uint64_t k) const { return pos_.at(k).weight; }
  void set_weight(std::uint64_t k, float w) { pos_.at(k).weight = w; }
  [[nodiscard]] std::uint64_t pick(ndg::Xoshiro256& rng) const {
    return keys_[rng.next_below(keys_.size())];
  }
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const { return keys_; }

  void apply(const dyn::Mutation& m) {
    const std::uint64_t k = key(m.src, m.dst);
    switch (m.kind) {
      case dyn::MutationKind::kInsertEdge: insert(k, m.weight); break;
      case dyn::MutationKind::kDeleteEdge: erase(k); break;
      case dyn::MutationKind::kWeightChange: set_weight(k, m.weight); break;
    }
  }

 private:
  struct Entry {
    float weight;
    std::size_t index;
  };
  std::unordered_map<std::uint64_t, Entry> pos_;
  std::vector<std::uint64_t> keys_;
};

/// One serving side (coordinator or replica): an incremental engine per
/// algorithm, each over its own DynGraph.
struct Side {
  Side(const ndg::Graph& base, std::uint64_t weight_seed, VertexId source,
       double compact_threshold)
      : sssp_graph(base, sssp_graph_options(weight_seed, compact_threshold)),
        pr_graph(base, pr_graph_options(compact_threshold)),
        sssp(source, weight_seed),
        pr(kEps),
        sssp_inc(sssp_graph, sssp,
                 dyn::EligibilityGate(
                     ndg::StaticEligibility<ndg::SsspProgram>::kWarmStartVerdict),
                 engine_options()),
        pr_inc(pr_graph, pr,
               dyn::EligibilityGate(
                   ndg::StaticEligibility<ndg::PageRankProgram>::kWarmStartVerdict),
               engine_options()) {
    (void)sssp_inc.recompute_cold();
    (void)pr_inc.recompute_cold();
  }
  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;

  static dyn::DynGraphOptions sssp_graph_options(std::uint64_t weight_seed,
                                                 double compact_threshold) {
    dyn::DynGraphOptions o = pr_graph_options(compact_threshold);
    o.base_weight = [weight_seed](EdgeId e) {
      return ndg::SsspProgram::edge_weight(weight_seed, e);
    };
    return o;
  }
  static dyn::DynGraphOptions pr_graph_options(double compact_threshold) {
    dyn::DynGraphOptions o;
    o.compact_threshold = compact_threshold;
    return o;
  }
  static ndg::EngineOptions engine_options() {
    ndg::EngineOptions o;
    o.num_threads = kThreads;
    o.mode = ndg::AtomicityMode::kRelaxed;
    return o;
  }

  dyn::DynGraph sssp_graph;
  dyn::DynGraph pr_graph;
  ndg::SsspProgram sssp;
  ndg::PageRankProgram pr;
  dyn::IncrementalEngine<ndg::SsspProgram> sssp_inc;
  dyn::IncrementalEngine<ndg::PageRankProgram> pr_inc;
};

/// One epoch's input, encoded as it arrives on the wire.
struct EncodedBatch {
  std::string bin;   // kMBatch frames
  std::string json;  // newline-terminated mutate lines
  std::size_t size = 0;
};

const char* kind_name(dyn::MutationKind k) {
  switch (k) {
    case dyn::MutationKind::kInsertEdge: return "insert";
    case dyn::MutationKind::kDeleteEdge: return "delete";
    case dyn::MutationKind::kWeightChange: return "weight";
  }
  return "";
}

bool parse_kind(const std::string& s, dyn::MutationKind& out) {
  if (s == "insert") out = dyn::MutationKind::kInsertEdge;
  else if (s == "delete") out = dyn::MutationKind::kDeleteEdge;
  else if (s == "weight") out = dyn::MutationKind::kWeightChange;
  else return false;
  return true;
}

/// Quarter-unit weights survive both encodings exactly.
float quarter(float w) { return std::floor(w * 4.0f) / 4.0f; }

class Stream final : public Workload {
 public:
  explicit Stream(const RunConfig& cfg)
      : seed_(cfg.seed),
        vertices_(cfg.tiny ? 512 : 8192),
        edge_samples_(cfg.tiny ? 4096 : 65536),
        batch_(cfg.tiny ? 64 : 512),
        queries_(cfg.tiny ? 32 : 256) {}

  void setup(Tracer& tr) override {
    ndg::EdgeList el;
    {
      auto s = tr.span("graph.generate");
      el = ndg::symmetrize(ndg::gen::rmat(vertices_, edge_samples_, seed_));
    }
    {
      auto s = tr.span("graph.build");
      base_ = ndg::Graph::build(vertices_, std::move(el));
      s.set("bytes", graph_bytes(base_));
    }
    EdgeId best = 0;
    for (VertexId v = 0; v < vertices_; ++v) {
      if (base_.out_degree(v) > best) {
        best = base_.out_degree(v);
        source_ = v;
      }
    }
    // Overflow share (retired plus grown ids over base edges) past which a
    // DynGraph compacts: above the 3/4 batch of inserts the warm epochs of a
    // half-round add, below that plus the cold epoch's 3/4 batch of deletes,
    // so compaction runs once per half-round, right after the cold epoch.
    compact_threshold_ = 4.5 * static_cast<double>(batch_ / 4) /
                         static_cast<double>(base_.num_edges());
    generate_batches();
    ndg::Xoshiro256 rng(seed_ ^ 0x71u);
    for (std::size_t q = 0; q < queries_; ++q) {
      query_vertices_.push_back(static_cast<VertexId>(rng.next_below(vertices_)));
    }
    reset();
  }

  void prepare_checks(Checker& ck) override {
    ck.expect(check_reach("stream source", ndg::ref::bfs(base_, source_), 0.5));
    EdgeSet set = base_edge_set();
    for (const std::vector<dyn::Mutation>& batch : batches_) {
      for (const dyn::Mutation& m : batch) set.apply(m);
      std::vector<ndg::Edge> edges;
      for (const std::uint64_t k : set.keys()) {
        edges.push_back({static_cast<VertexId>(k >> 32),
                         static_cast<VertexId>(k & 0xffffffffu)});
      }
      const ndg::Graph g = ndg::Graph::build(vertices_, std::move(edges));
      std::vector<float> weights(g.num_edges());
      for (VertexId v = 0; v < vertices_; ++v) {
        const auto nbrs = g.out_neighbors(v);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          weights[g.out_edge_id(v, k)] = set.weight(key(v, nbrs[k]));
        }
      }
      ref_sssp_.push_back(ndg::ref::sssp(g, source_, weights));
      ref_pr_.push_back(ndg::ref::pagerank(g, kDamping, 1e-9));
    }
  }

  std::uint64_t round(Tracer& tr, Checker& ck, RoundSample& out) override {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < kEpochsPerRound; ++i) {
      failed += epoch(i, tr, ck, out);
    }
    reset();
    return failed;
  }

  [[nodiscard]] std::uint64_t ops_per_round() const override {
    return kEpochsPerRound;
  }
  [[nodiscard]] std::string headline() const override { return "epoch_ms"; }

  void ladder(Tracer& tr) override {
    // DynGraph apply and compact, timed on their own over the round's
    // batches (apply_epoch runs them inside one call).
    for (int rep = 0; rep < 3; ++rep) {
      dyn::DynGraph g(base_, Side::pr_graph_options(compact_threshold_));
      for (std::size_t i = 0; i < batches_.size(); ++i) {
        dyn::MutationBatch batch{i + 1, batches_[i]};
        {
          auto s = tr.span("dyn.graph.apply");
          (void)g.apply(batch, nullptr, kThreads);
          s.set("muts", static_cast<double>(batch.size()));
        }
        if (g.should_compact()) {
          auto s = tr.span("dyn.graph.compact");
          (void)g.compact();
        }
      }
    }
  }

 private:
  EdgeSet base_edge_set() const {
    EdgeSet set;
    for (VertexId v = 0; v < vertices_; ++v) {
      const auto nbrs = base_.out_neighbors(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        set.insert(key(v, nbrs[k]),
                   ndg::SsspProgram::edge_weight(seed_, base_.out_edge_id(v, k)));
      }
    }
    return set;
  }

  /// The round's batches: valid against the edge set as it stands at each
  /// epoch, one mutation per edge per batch. Warm epochs insert a quarter
  /// and lower weights of the rest; cold epochs delete three quarters and
  /// raise weights of the rest, so each half-round ends at the base size.
  void generate_batches() {
    EdgeSet set = base_edge_set();
    ndg::Xoshiro256 rng(seed_ ^ 0x5eedu);
    const std::size_t topo = batch_ / 4;
    for (std::size_t i = 0; i < kEpochsPerRound; ++i) {
      std::vector<dyn::Mutation> batch;
      std::unordered_map<std::uint64_t, bool> used;
      const auto pick_existing = [&] {
        for (;;) {
          const std::uint64_t k = set.pick(rng);
          if (used.emplace(k, true).second) return k;
        }
      };
      const bool cold = cold_epoch(i);
      const std::size_t deletes = cold ? 3 * topo : 0;
      const std::size_t inserts = cold ? 0 : topo;
      for (std::size_t j = 0; j < deletes; ++j) {
        const std::uint64_t k = pick_existing();
        batch.push_back({dyn::MutationKind::kDeleteEdge, static_cast<VertexId>(k >> 32),
                         static_cast<VertexId>(k & 0xffffffffu), 1.0f});
      }
      for (std::size_t j = 0; j < inserts;) {
        const auto u = static_cast<VertexId>(rng.next_below(vertices_));
        const auto v = static_cast<VertexId>(rng.next_below(vertices_));
        const std::uint64_t k = key(u, v);
        if (u == v || set.contains(k) || used.count(k) > 0) continue;
        used.emplace(k, true);
        batch.push_back({dyn::MutationKind::kInsertEdge, u, v,
                         1.0f + 0.25f * static_cast<float>(rng.next_below(37))});
        ++j;
      }
      while (batch.size() < batch_) {
        const std::uint64_t k = pick_existing();
        const float old = set.weight(k);
        const float step = 0.25f * static_cast<float>(1 + rng.next_below(8));
        const float w = cold ? quarter(old) + 0.25f + step
                             : std::max(1.0f, quarter(old) - step);
        batch.push_back({dyn::MutationKind::kWeightChange, static_cast<VertexId>(k >> 32),
                         static_cast<VertexId>(k & 0xffffffffu), w});
      }
      for (const dyn::Mutation& m : batch) set.apply(m);

      EncodedBatch enc;
      enc.size = batch.size();
      const std::size_t half = batch.size() / 2;
      for (std::size_t b = 0; b < half; b += kMutsPerFrame) {
        const std::vector<dyn::Mutation> chunk(
            batch.begin() + static_cast<std::ptrdiff_t>(b),
            batch.begin() + static_cast<std::ptrdiff_t>(std::min(half, b + kMutsPerFrame)));
        dyn::append_frame(enc.bin, dyn::FrameType::kMBatch, dyn::encode_mbatch(chunk));
      }
      for (std::size_t j = half; j < batch.size(); ++j) {
        const dyn::Mutation& m = batch[j];
        enc.json += dyn::WireWriter()
                        .str("op", "mutate")
                        .str("kind", kind_name(m.kind))
                        .u64("src", m.src)
                        .u64("dst", m.dst)
                        .num("weight", m.weight)
                        .finish();
        enc.json += '\n';
      }
      batches_.push_back(std::move(batch));
      encoded_.push_back(std::move(enc));
    }
  }

  /// Both sides back to the base graph, at its cold fixed point.
  void reset() {
    log_ = std::make_unique<dyn::MutationLog>();
    coord_.reset();
    replica_.reset();
    coord_ = std::make_unique<Side>(base_, seed_, source_, compact_threshold_);
    replica_ = std::make_unique<Side>(base_, seed_, source_, compact_threshold_);
    seq_ = 1;
  }

  template <typename Program>
  dyn::EpochResult apply(dyn::IncrementalEngine<Program>& inc, const char* span,
                         const dyn::MutationBatch& batch,
                         std::vector<dyn::AppliedMutation>& applied, Tracer& tr) {
    auto s = tr.span(span);
    dyn::EpochResult r = inc.apply_epoch(batch, /*auto_compact=*/true, &applied);
    s.set("applied", static_cast<double>(r.apply_stats.applied));
    s.set("warm", r.warm ? 1.0 : 0.0);
    s.set("seeds", static_cast<double>(r.seed_count));
    s.set("updates", static_cast<double>(r.engine.updates));
    s.set("engine_ms", r.engine.seconds * 1e3);
    s.set("compacted", r.compacted ? 1.0 : 0.0);
    return r;
  }

  std::string ship(const dyn::EpochResult& r,
                   std::vector<dyn::AppliedMutation> applied) {
    dyn::RepRecord rec;
    rec.seq = seq_++;
    rec.kind = dyn::RepKind::kBatch;
    rec.epoch = r.epoch;
    rec.muts = std::move(applied);
    rec.compact_after = r.compacted;
    std::string wire;
    dyn::append_frame(wire, dyn::FrameType::kRepRecord, dyn::encode_record_bin(rec));
    return wire;
  }

  /// Replica side: one kRepRecord frame in, replayed to a fixed point.
  template <typename Program>
  bool replay(dyn::IncrementalEngine<Program>& inc, const char* span,
              std::string& wire, Tracer& tr) {
    dyn::Frame frame;
    dyn::RepRecord rec;
    {
      auto s = tr.span("dyn.replication.decode");
      if (dyn::extract_frame(wire, frame) != dyn::FrameParse::kOk ||
          frame.type != dyn::FrameType::kRepRecord ||
          !dyn::decode_record_bin(frame.payload, rec)) {
        return false;
      }
      s.set("muts", static_cast<double>(rec.muts.size()));
    }
    auto s = tr.span(span);
    (void)inc.replay_epoch(rec.epoch, rec.muts, rec.compact_after);
    return true;
  }

  std::uint64_t epoch(std::size_t i, Tracer& tr, Checker& ck, RoundSample& out) {
    auto epoch_span = tr.span("stream.epoch");
    const EncodedBatch& enc = encoded_[i];
    std::uint64_t failed = 0;

    // 1-2. intake: decode both encodings, append, seal.
    std::vector<dyn::Mutation> bin_muts;
    std::vector<dyn::Mutation> json_muts;
    bool decoded = true;
    const double bin_decode_ms = cpu_ms([&] {
      auto s = tr.span("dyn.wire.decode_bin");
      std::string buf = enc.bin;
      dyn::Frame frame;
      std::vector<dyn::Mutation> chunk;
      while (dyn::extract_frame(buf, frame) == dyn::FrameParse::kOk) {
        decoded = decoded && frame.type == dyn::FrameType::kMBatch &&
                  dyn::decode_mbatch(frame.payload, chunk);
        bin_muts.insert(bin_muts.end(), chunk.begin(), chunk.end());
      }
      s.set("muts", static_cast<double>(bin_muts.size()));
    });
    const double json_decode_ms = cpu_ms([&] {
      auto s = tr.span("dyn.wire.decode_json");
      std::size_t begin = 0;
      while (begin < enc.json.size()) {
        const std::size_t end = enc.json.find('\n', begin);
        dyn::WireMessage msg;
        std::string kind_s;
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        double weight = 1.0;
        dyn::Mutation m;
        decoded = decoded &&
                  dyn::parse_wire(std::string_view(enc.json).substr(begin, end - begin), msg) &&
                  msg.get_string("kind", kind_s) && parse_kind(kind_s, m.kind) &&
                  msg.get_u64("src", src) && msg.get_u64("dst", dst) &&
                  msg.get_double("weight", weight);
        m.src = static_cast<VertexId>(src);
        m.dst = static_cast<VertexId>(dst);
        m.weight = static_cast<float>(weight);
        json_muts.push_back(m);
        begin = end + 1;
      }
      s.set("muts", static_cast<double>(json_muts.size()));
    });
    dyn::MutationBatch batch;
    const double append_ms = cpu_ms([&] {
      auto s = tr.span("dyn.log.append_seal");
      log_->append(bin_muts);
      log_->append(json_muts);
      batch = log_->seal();
      s.set("muts", static_cast<double>(batch.size()));
    });
    const double append_share = append_ms / static_cast<double>(enc.size);
    out.add("intake_bin_mut_per_s",
            static_cast<double>(bin_muts.size()) /
                ((bin_decode_ms + append_share * static_cast<double>(bin_muts.size())) * 1e-3));
    out.add("intake_json_mut_per_s",
            static_cast<double>(json_muts.size()) /
                ((json_decode_ms + append_share * static_cast<double>(json_muts.size())) * 1e-3));

    // 3. coordinator: apply and recompute to the fixed point.
    std::vector<dyn::AppliedMutation> sssp_applied;
    std::vector<dyn::AppliedMutation> pr_applied;
    dyn::EpochResult sssp_r;
    dyn::EpochResult pr_r;
    const double coord_ms = cpu_ms([&] {
      sssp_r = apply(coord_->sssp_inc, "dyn.apply_epoch.sssp", batch, sssp_applied, tr);
      pr_r = apply(coord_->pr_inc, "dyn.apply_epoch.pagerank", batch, pr_applied, tr);
    });
    const double epoch_ms = bin_decode_ms + json_decode_ms + append_ms + coord_ms;

    // 4. ship to the replica, which decodes and replays.
    std::string sssp_wire;
    std::string pr_wire;
    bool replayed = true;
    const double replica_ms = cpu_ms([&] {
      {
        auto s = tr.span("dyn.replication.encode");
        s.set("muts", static_cast<double>(sssp_applied.size() + pr_applied.size()));
        sssp_wire = ship(sssp_r, sssp_applied);
        pr_wire = ship(pr_r, pr_applied);
      }
      replayed = replay(replica_->sssp_inc, "dyn.replica.replay.sssp", sssp_wire, tr) &&
                 replay(replica_->pr_inc, "dyn.replica.replay.pagerank", pr_wire, tr);
    });
    const double visible_ms = epoch_ms + replica_ms;

    // 5. point queries at quiescence, from both sides.
    std::string replies;
    const double query_ms = cpu_ms([&] {
      auto s = tr.span("dyn.query");
      for (const Side* side : {coord_.get(), replica_.get()}) {
        for (const VertexId v : query_vertices_) {
          dyn::QueryReplyBin rep;
          rep.vertex = v;
          rep.epoch = batch.epoch;
          rep.value = side->sssp.distances()[v];
          dyn::append_frame(replies, dyn::FrameType::kQueryReply,
                            dyn::encode_query_reply(rep));
          rep.value = side->pr.ranks()[v];
          dyn::append_frame(replies, dyn::FrameType::kQueryReply,
                            dyn::encode_query_reply(rep));
        }
      }
      s.set("queries", 4.0 * static_cast<double>(query_vertices_.size()));
    });
    epoch_span.end();

    out.add("epoch_ms", epoch_ms);
    out.add("replica_visible_ms", visible_ms);
    out.add("query_per_s", 4.0 * static_cast<double>(query_vertices_.size()) /
                               (query_ms * 1e-3));
    out.total_ms += visible_ms + query_ms;

    if (!decoded || !replayed || !sssp_r.engine.converged || !pr_r.engine.converged) {
      ++failed;
    }
    if (replies.size() != 4 * query_vertices_.size() * (dyn::kFrameHeaderBytes + 25)) {
      ck.expect("stream: query replies have the wrong size");
    }
    // Counts predicted from the generated batches.
    for (const dyn::EpochResult* r : {&sssp_r, &pr_r}) {
      if (r->apply_stats.applied != enc.size || r->apply_stats.rejected != 0) {
        ck.expect("stream: epoch " + std::to_string(i) + " accepted " +
                  std::to_string(r->apply_stats.applied) + " of " +
                  std::to_string(enc.size) + " mutations");
      }
    }
    if (sssp_r.warm == cold_epoch(i)) {
      ck.expect("stream: epoch " + std::to_string(i) + " SSSP gate went " +
                (sssp_r.warm ? "warm" : "cold") + " against the prediction");
    }
    if (!pr_r.warm) ck.expect("stream: PageRank epoch went cold");
    if (sssp_r.engine.updates == 0 || pr_r.engine.updates == 0) {
      ck.expect("stream: epoch " + std::to_string(i) + " recompute did no work");
    }
    if (!ref_sssp_.empty()) {
      ck.expect(check_equal("stream coordinator sssp", coord_->sssp.distances(), ref_sssp_[i]));
      ck.expect(check_equal("stream replica sssp", replica_->sssp.distances(),
                            coord_->sssp.distances()));
      ck.expect(check_pagerank_values("stream coordinator pagerank", coord_->pr.ranks(), ref_pr_[i], kEps));
      ck.expect(check_pagerank_values("stream replica pagerank", replica_->pr.ranks(), ref_pr_[i], kEps));
    }
    if (i + 1 == kEpochsPerRound) {
      const std::uint64_t compactions = coord_->sssp_graph.compactions();
      if (compactions == 0 || compactions != replica_->sssp_graph.compactions()) {
        ck.expect("stream: compaction ran " + std::to_string(compactions) +
                  " times on the coordinator and " +
                  std::to_string(replica_->sssp_graph.compactions()) +
                  " on the replica");
      }
    }
    return failed;
  }

  std::uint64_t seed_;
  VertexId vertices_;
  EdgeId edge_samples_;
  std::size_t batch_;
  std::size_t queries_;
  ndg::Graph base_;
  VertexId source_ = 0;
  double compact_threshold_ = 0.0;
  std::vector<std::vector<dyn::Mutation>> batches_;
  std::vector<EncodedBatch> encoded_;
  std::vector<VertexId> query_vertices_;
  std::unique_ptr<dyn::MutationLog> log_;
  std::unique_ptr<Side> coord_;
  std::unique_ptr<Side> replica_;
  std::uint64_t seq_ = 1;
  std::vector<std::vector<float>> ref_sssp_;
  std::vector<std::vector<double>> ref_pr_;
};

}  // namespace

std::unique_ptr<Workload> make_stream(const RunConfig& cfg) {
  return std::make_unique<Stream>(cfg);
}

}  // namespace perfbench
