#ifndef QUASAQ_CORE_PLAN_GENERATOR_H_
#define QUASAQ_CORE_PLAN_GENERATOR_H_

#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "cache/cache_manager.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "core/plan.h"
#include "media/library.h"
#include "metadata/metadata_store.h"
#include "net/rtp.h"
#include "query/ast.h"

// Plan Generator (paper §3.4): enumerates the search space of delivery
// plans for a logical object — all admissible combinations of physical
// replica (A1), delivery site (A2), frame-dropping strategy (A3),
// transcoding target (A4) and encryption algorithm (A5), with the
// activity order fixed (retrieval -> transfer -> transcode -> drop ->
// encrypt), which reduces the space from O(n! d^n) to O(d^n).
//
// Static rules drop plans that can never satisfy the query's QoS
// (up-transcoding, out-of-range delivered quality, startup past the
// Time Guarantee) and obvious performance pitfalls (encrypting when no
// security is requested — encryption always follows dropping by
// construction).
//
// The enumeration is factored into two stages so core/plan_stream.h can
// search the space lazily: EnumerateGroups fixes the (A1, A2) prefix —
// one GroupSeed per (replica, delivery site) pair — and ExpandGroup
// materializes the activity combinations (A3–A5) of one group. The
// eager Generate() is the composition of the two: the reference the
// stream is tested against, and what bench_plan_space measures.
//
// ExpandGroup prunes before it builds. Delivered quality depends only on
// the (transcode target, drop) pair and startup only on relay and
// transcode, so the static rules run once per pair, on rates taken from
// a static frame-drop table (media::StandardFrameDropEffect), before any
// encryption choice is priced. None of that reads more of the group than
// its replica's stored quality and whether it is relayed — its
// ChoiceKey. The pairs, their rates and startup times do not read the
// query either, so the generator prices them once per key, on first
// use, and keeps them for its lifetime: one entry per distinct (stored
// AppQos, relayed) key of the catalog, however many admissions follow.
// A ChoiceTable is then only a filter of that list by one QoS
// requirement (startup bound, then QoS window), which every group of
// the key shares for both its demand floor and its expansion. Only the
// table's choices are finalized into plans with a resource vector, and
// each cache-served twin is patched from its finalized disk twin rather
// than finalized again.
//
// Thread-compatible: the candidate store fills in lazily, from const
// methods too, so callers serialize. In a MediaDbSystem they do so under
// the facade's one lock (docs/ARCHITECTURE.md "Threading model").

namespace quasaq::core {

class PlanGenerator {
 public:
  struct Options {
    // Activity sets that may appear in plans.
    bool enable_frame_dropping = true;
    bool enable_transcoding = true;
    bool enable_relay = true;  // delivery site != source site
    // When false, QoS-satisfaction filtering and the wasteful-plan rules
    // are skipped (the raw combinatorial space; ablation only — such
    // plans must not be executed).
    bool apply_static_pruning = true;
    // Candidate transcode targets (defaults to the standard ladder).
    std::vector<media::AppQos> transcode_targets;
    // Cache-served plan variants (only with a cache view, see below):
    // when a replica's source site has at least `min_cache_fraction` of
    // the object resident in its segment cache, every plan for that
    // replica is additionally emitted as a cache-served variant whose
    // resource vector swaps that share of disk bandwidth for memory
    // bandwidth.
    double min_cache_fraction = 0.05;
    PlanCostConstants constants;
  };

  // One (A1, A2) prefix of the enumeration: the physical replica and the
  // delivery site are fixed, the activity choices (A3–A5) are still
  // open. Groups are ordered replica-major / delivery-site-minor, which
  // is exactly the eager enumeration order.
  struct GroupSeed {
    media::ReplicaInfo replica;
    SiteId delivery_site;
    // Cache warmth of the replica at its source site at enumeration
    // time; > 0 means every plan of the group gets a cache-served twin.
    double cache_fraction = 0.0;
  };

  /// `metadata` must outlive the generator. `sites` is the set of
  /// candidate delivery sites.
  PlanGenerator(const meta::MetadataStore* metadata,
                std::vector<SiteId> sites, const Options& options);

  /// Enumerates plans for delivering `content` under `qos`. The result
  /// can be empty: no replica/activity combination satisfies the QoS
  /// bounds. The querying site is not read: every site sees the same
  /// catalog.
  Result<std::vector<Plan>> Generate(SiteId query_site, LogicalOid content,
                                     const query::QosRequirement& qos);

  /// Stage 1 of the factored enumeration: the (replica, delivery site)
  /// prefixes for `content`, in eager enumeration order. Fails with
  /// kNotFound when no replica is registered. The querying site is not
  /// read: every site sees the same catalog.
  Result<std::vector<GroupSeed>> EnumerateGroups(SiteId query_site,
                                                 LogicalOid content) const;

  // What a ChoiceTable depends on besides the QoS requirement: the
  // transcode stages and stream rates read only the replica's stored
  // quality (never its bitrate), and the Time Guarantee only whether the
  // group is relayed.
  struct ChoiceKey {
    media::AppQos stored;
    bool relayed = false;

    friend bool operator==(const ChoiceKey& a, const ChoiceKey& b) = default;
  };
  static ChoiceKey KeyOf(const GroupSeed& seed) {
    return ChoiceKey{seed.replica.qos,
                     seed.delivery_site != seed.replica.site};
  }

  // The encryption-independent static work of expanding any group of one
  // ChoiceKey under one QoS requirement, done once and shared.
  struct ChoiceTable {
    struct Choice {
      std::optional<media::AppQos> target;  // empty = stored quality
      media::FrameDropStrategy drop = media::FrameDropStrategy::kNone;
      net::StreamRates rates;
    };
    ChoiceKey key;
    // Every (transcode target, drop) choice that passes the static rules
    // (all of them when static pruning is off), in eager enumeration
    // order.
    std::vector<Choice> choices;
    // Slot of the requirement's security floor in the A5 candidate
    // lists every generator with the same options builds alike, so the
    // table stays valid on any such generator, and after the one that
    // built it is gone.
    size_t encryption_slot = 0;
    // RelayForwardCpu of the stored stream for relayed keys, else 0.
    double forward_cpu = 0.0;
    // The least wire rate and CPU fraction over choices x encryptions;
    // infinity when `choices` is empty.
    double min_wire_kbps = std::numeric_limits<double>::infinity();
    double min_cpu = std::numeric_limits<double>::infinity();
  };

  /// The ChoiceTable of `seed`'s key under `qos`; valid for every group
  /// with the same KeyOf(). Filters the key's priced candidates, which
  /// the first call for the key builds.
  ChoiceTable BuildChoiceTable(const GroupSeed& seed,
                               const query::QosRequirement& qos) const;

  /// Stage 2: appends every surviving plan of `seed` to `out`, in eager
  /// enumeration order (cache-served twin immediately before its disk
  /// twin, matching Generate()). `table` must be built for KeyOf(seed).
  void ExpandGroup(const GroupSeed& seed, const ChoiceTable& table,
                   std::vector<Plan>& out) const;
  /// ExpandGroup on a table built for this call alone.
  void ExpandGroup(const GroupSeed& seed, const query::QosRequirement& qos,
                   std::vector<Plan>& out) const;

  /// Clears `demand`, then writes into it the floor of the group: what
  /// every plan of `seed` that can satisfy the table's requirement
  /// carries at minimum. That is disk bandwidth at the source (the cache-served floor when
  /// the group has cached twins), the server-to-server transfer share
  /// for relayed groups, and the least wire rate, CPU and staging memory
  /// any QoS-feasible (transcode target, drop) choice puts on the
  /// delivery site. Its entries are a subset of every plan's entries, in
  /// the same sorted order and none larger, so overlaying this vector on
  /// the pool lower-bounds both the LRB cost and the normalized demand
  /// of every plan in the group — the admissible frontier key PlanStream
  /// prunes with. Clearing keeps `demand`'s capacity, so a caller that
  /// refills one vector group after group allocates only while it grows.
  /// `table` must be built for KeyOf(seed).
  void GroupDemandFloor(const GroupSeed& seed, const ChoiceTable& table,
                        ResourceVector& demand) const;

  /// Number of ChoiceKeys whose candidates have been priced so far.
  size_t candidate_keys() const { return candidates_.size(); }

  const Options& options() const { return options_; }

  /// Attaches the cache state consulted for cache-served plan variants
  /// (nullptr detaches; the view must outlive the generator). Lookups
  /// happen at generation time, so each query sees current warmth.
  void set_cache_view(const cache::CacheView* view) { cache_view_ = view; }
  const cache::CacheView* cache_view() const { return cache_view_; }

 private:
  // The A5 candidates a table's encryption slot names.
  const std::vector<media::EncryptionAlgorithm>& EncryptionsOf(
      const ChoiceTable& table) const;

  // The QoS-independent half of a ChoiceTable: every (transcode target,
  // drop) choice the options allow for one key, in eager enumeration
  // order, with its startup time.
  struct Candidates {
    struct Candidate {
      ChoiceTable::Choice choice;
      double startup_seconds = 0.0;
    };
    ChoiceKey key;
    double forward_cpu = 0.0;
    std::vector<Candidate> list;
  };
  // The candidates of `seed`'s key, built on first use. The entry never
  // changes or moves once stored.
  const Candidates& CandidatesOf(const GroupSeed& seed) const;
  Candidates BuildCandidates(const media::ReplicaInfo& replica,
                             const ChoiceKey& key) const;

  const meta::MetadataStore* metadata_;
  std::vector<SiteId> sites_;
  Options options_;
  const cache::CacheView* cache_view_ = nullptr;
  // Immutable after construction.
  std::vector<media::FrameDropStrategy> drop_choices_;
  // Indexed by static_cast<int>(SecurityLevel); raw space at slot 0
  // when static pruning is off.
  std::vector<std::vector<media::EncryptionAlgorithm>> encryption_choices_;
  // One entry per key seen so far, append-only (a deque keeps addresses
  // stable).
  mutable std::deque<Candidates> candidates_;
};

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_PLAN_GENERATOR_H_
