#include "core/plan_generator.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace quasaq::core {

PlanGenerator::PlanGenerator(const meta::MetadataStore* metadata,
                             std::vector<SiteId> sites,
                             const Options& options)
    : metadata_(metadata), sites_(std::move(sites)), options_(options) {
  assert(metadata_ != nullptr);
  assert(!sites_.empty());
  if (options_.transcode_targets.empty()) {
    options_.transcode_targets = media::QualityLadder::Standard().levels;
  }

  // A3 candidates depend only on the options — fixed once.
  drop_choices_.push_back(media::FrameDropStrategy::kNone);
  if (options_.enable_frame_dropping) {
    drop_choices_.push_back(media::FrameDropStrategy::kHalfBFrames);
    drop_choices_.push_back(media::FrameDropStrategy::kAllBFrames);
    drop_choices_.push_back(media::FrameDropStrategy::kAllBAndPFrames);
  }

  // A5 candidates per minimum security level (one table entry per
  // SecurityLevel value; a single raw-space entry when pruning is off).
  if (!options_.apply_static_pruning) {
    // Raw space: every algorithm, including none.
    std::vector<media::EncryptionAlgorithm> raw;
    for (int i = 0; i < media::kNumEncryptionAlgorithms; ++i) {
      raw.push_back(static_cast<media::EncryptionAlgorithm>(i));
    }
    encryption_choices_.push_back(std::move(raw));
  } else {
    for (int level = 0;
         level <= static_cast<int>(media::SecurityLevel::kStrong); ++level) {
      std::vector<media::EncryptionAlgorithm> choices;
      if (static_cast<media::SecurityLevel>(level) ==
          media::SecurityLevel::kNone) {
        // Encrypting an unprotected stream wastes CPU cycles — pruned.
        choices.push_back(media::EncryptionAlgorithm::kNone);
      } else {
        for (int i = 0; i < media::kNumEncryptionAlgorithms; ++i) {
          auto algorithm = static_cast<media::EncryptionAlgorithm>(i);
          if (media::EncryptionStrength(algorithm) >=
              static_cast<media::SecurityLevel>(level)) {
            choices.push_back(algorithm);
          }
        }
      }
      encryption_choices_.push_back(std::move(choices));
    }
  }
}

const std::vector<media::EncryptionAlgorithm>& PlanGenerator::EncryptionsOf(
    const ChoiceTable& table) const {
  assert(table.encryption_slot < encryption_choices_.size());
  return encryption_choices_[table.encryption_slot];
}

// The querying site is unnamed because the one catalog answers every
// site alike; the parameter stays for the callers that pass it.
Result<std::vector<PlanGenerator::GroupSeed>> PlanGenerator::EnumerateGroups(
    SiteId /*query_site*/, LogicalOid content) const {
  std::vector<const media::ReplicaInfo*> replicas =
      metadata_->ReplicasOf(content);
  if (replicas.empty()) {
    return Status::NotFound("no replicas registered for logical OID " +
                            std::to_string(content.value()));
  }
  std::vector<GroupSeed> groups;
  for (const media::ReplicaInfo* stored : replicas) {
    const media::ReplicaInfo& replica = *stored;
    // Cache warmth of this replica at its source site: a positive
    // fraction yields a cache-served twin of every plan in the group.
    double cache_fraction = 0.0;
    if (cache_view_ != nullptr) {
      cache_fraction = cache_view_->CachedFraction(replica.site, replica);
      if (cache_fraction < options_.min_cache_fraction) cache_fraction = 0.0;
    }
    for (SiteId delivery : sites_) {
      if (!options_.enable_relay && delivery != replica.site) continue;
      GroupSeed seed;
      seed.replica = replica;
      seed.delivery_site = delivery;
      seed.cache_fraction = cache_fraction;
      groups.push_back(std::move(seed));
    }
  }
  return groups;
}

PlanGenerator::Candidates PlanGenerator::BuildCandidates(
    const media::ReplicaInfo& replica, const ChoiceKey& key) const {
  // Only replica.qos is read below (KeyOf's contract): any replica of
  // the same stored quality yields the same doubles.
  Candidates candidates;
  candidates.key = key;
  candidates.forward_cpu =
      key.relayed ? RelayForwardCpu(replica, options_.constants) : 0.0;
  auto visit_target = [&](const std::optional<media::AppQos>& target) {
    // Startup depends only on relay and transcode. (A cache-served twin
    // only starts sooner.)
    const double startup_seconds = DiskStartupSeconds(
        key.relayed, target.has_value(), options_.constants);
    const net::TranscodeStage stage = net::MakeTranscodeStage(replica, target);
    for (media::FrameDropStrategy drop : drop_choices_) {
      candidates.list.push_back(Candidates::Candidate{
          ChoiceTable::Choice{
              target, drop,
              net::ComputeStreamRates(replica, stage, drop,
                                      options_.constants.streaming_cost)},
          startup_seconds});
    }
  };

  // A4 candidates for this replica: stay at stored quality, or any
  // target the source quality can be down-converted to.
  visit_target(std::nullopt);
  if (!options_.enable_transcoding) return candidates;
  const bool prune = options_.apply_static_pruning;
  for (const media::AppQos& target : options_.transcode_targets) {
    if (prune && !media::TranscodeAllowed(replica.qos, target)) continue;
    if (!prune && target == replica.qos) {
      continue;  // identity transcode is meaningless in any mode
    }
    visit_target(target);
  }
  return candidates;
}

const PlanGenerator::Candidates& PlanGenerator::CandidatesOf(
    const GroupSeed& seed) const {
  const ChoiceKey key = KeyOf(seed);
  for (const Candidates& candidates : candidates_) {
    if (candidates.key == key) return candidates;
  }
  candidates_.push_back(BuildCandidates(seed.replica, key));
  return candidates_.back();
}

PlanGenerator::ChoiceTable PlanGenerator::BuildChoiceTable(
    const GroupSeed& seed, const query::QosRequirement& qos) const {
  const Candidates& candidates = CandidatesOf(seed);
  const bool prune = options_.apply_static_pruning;
  ChoiceTable table;
  table.key = candidates.key;
  // Slot 0 holds the raw space when static pruning is off.
  table.encryption_slot =
      prune ? static_cast<size_t>(qos.min_security) : size_t{0};
  table.forward_cpu = candidates.forward_cpu;
  const std::vector<media::EncryptionAlgorithm>& encryptions =
      EncryptionsOf(table);
  for (const Candidates::Candidate& candidate : candidates.list) {
    const ChoiceTable::Choice& choice = candidate.choice;
    // Time Guarantee: a target that cannot start in time fails for
    // every drop and encryption.
    if (prune && qos.max_startup_seconds > 0.0 &&
        candidate.startup_seconds > qos.max_startup_seconds) {
      continue;
    }
    // The delivered quality depends only on (target, drop).
    if (prune && !qos.range.Contains(choice.rates.delivered_qos)) continue;
    table.min_wire_kbps =
        std::min(table.min_wire_kbps, choice.rates.wire_rate_kbps);
    for (media::EncryptionAlgorithm encryption : encryptions) {
      // The slot's list already meets the security floor.
      assert(!prune ||
             qos.SatisfiedBy(choice.rates.delivered_qos, encryption));
      table.min_cpu =
          std::min(table.min_cpu, choice.rates.CpuFraction(encryption));
    }
    table.choices.push_back(choice);
  }
  return table;
}

void PlanGenerator::ExpandGroup(const GroupSeed& seed,
                                const ChoiceTable& table,
                                std::vector<Plan>& out) const {
  assert(table.key == KeyOf(seed));
  const media::ReplicaInfo& replica = seed.replica;
  const std::vector<media::EncryptionAlgorithm>& encryptions =
      EncryptionsOf(table);
  for (const ChoiceTable::Choice& choice : table.choices) {
    for (media::EncryptionAlgorithm encryption : encryptions) {
      Plan plan;
      plan.replica_oid = replica.id;
      plan.source_site = replica.site;
      plan.delivery_site = seed.delivery_site;
      plan.transform.transcode_target = choice.target;
      plan.transform.drop = choice.drop;
      plan.transform.encryption = encryption;
      FinalizePlan(plan, replica, choice.rates, table.forward_cpu,
                   options_.constants);
      if (seed.cache_fraction > 0.0) {
        // The delivered quality is unchanged and startup only improves,
        // so the twin passes the same static rules.
        out.push_back(CacheServedTwin(plan, replica, seed.cache_fraction,
                                      options_.constants));
      }
      out.push_back(std::move(plan));
    }
  }
}

void PlanGenerator::ExpandGroup(const GroupSeed& seed,
                                const query::QosRequirement& qos,
                                std::vector<Plan>& out) const {
  ExpandGroup(seed, BuildChoiceTable(seed, qos), out);
}

void PlanGenerator::GroupDemandFloor(const GroupSeed& seed,
                                     const ChoiceTable& table,
                                     ResourceVector& demand) const {
  assert(table.key == KeyOf(seed));
  const media::ReplicaInfo& replica = seed.replica;
  demand.Clear();
  // Retrieval floor: when the group carries cache-served twins, the
  // cached variant reads only (1 - fraction) of the bytes from disk —
  // the component-wise minimum over both twins, so the bound stays
  // admissible for either. (The cached twin's memory-bandwidth share is
  // zero on the disk twin, so it cannot be part of the floor.)
  double disk_kbps = replica.bitrate_kbps * (1.0 - seed.cache_fraction);
  if (disk_kbps > 0.0) {
    demand.Add({replica.site, ResourceKind::kDiskBandwidth}, disk_kbps);
  }
  if (table.key.relayed) {
    // Server-to-server transfer of the stored stream, exactly as
    // FinalizePlan charges it for every relayed plan.
    demand.Add({replica.site, ResourceKind::kNetworkBandwidth},
               replica.bitrate_kbps);
    demand.Add({replica.site, ResourceKind::kCpu}, table.forward_cpu);
    demand.Add({seed.delivery_site, ResourceKind::kCpu}, table.forward_cpu);
  }
  // Delivery floor: the least wire rate, CPU and staging memory any
  // QoS-feasible choice puts on the delivery site. Each minimum is a
  // figure some plan of the group carries, computed as FinalizePlan
  // computes it, so no plan's entry falls below it.
  if (!table.choices.empty()) {
    demand.Add({seed.delivery_site, ResourceKind::kCpu}, table.min_cpu);
    demand.Add({seed.delivery_site, ResourceKind::kNetworkBandwidth},
               table.min_wire_kbps);
    demand.Add({seed.delivery_site, ResourceKind::kMemory},
               table.min_wire_kbps * options_.constants.buffer_seconds);
  }
}

Result<std::vector<Plan>> PlanGenerator::Generate(
    SiteId query_site, LogicalOid content, const query::QosRequirement& qos) {
  Result<std::vector<GroupSeed>> groups = EnumerateGroups(query_site, content);
  if (!groups.ok()) return groups.status();
  std::vector<Plan> plans;
  for (const GroupSeed& seed : *groups) {
    ExpandGroup(seed, qos, plans);
  }
  return plans;
}

}  // namespace quasaq::core
