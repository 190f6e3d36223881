// YCSB workloads over the sharded durable KV store (src/kv/).
//
// Two sweeps:
//
//   1. Scalar sweep — the words configurations of the paper's grid (plus
//      the non-persistent baseline) across the YCSB A/B/C/D/F mixes on
//      the hashed store and the scan-heavy YCSB E mix (plus F again) on
//      the ordered (skiplist-backed) store, NVtraverse method throughout
//      (the paper's production pick for traversal-heavy structures).
//
//   2. Batched sweep — the multi-op path (Store::multi_get/multi_put)
//      over the A/B/C/F mixes at batch ∈ {1, 4, 16, 64} on BOTH store
//      layouts (flit-HT words): batch=1 is the scalar per-op baseline
//      (taken from sweep 1 where sweep 1 ran the same cell);
//      larger batches pipeline probes with software prefetch (on the
//      hashed layout) and coalesce the write path's pfences (one fence
//      for a whole batch of records, one for all of its publishes). The
//      pfences/op column is the paper's Figure-9 argument extended to
//      batching — scripts/check_fence_coalescing.py asserts the
//      amortization never regresses.
//
// Emits one CSV row per point as it completes, and a machine-readable
// BENCH_ycsb_kv.json summary at exit so the perf trajectory can be
// tracked run over run (scripts/bench_diff.py compares two snapshots).
//
// Reads verify the fetched payload's key stamp, scans additionally
// verify ascending key order, and F's read-modify-writes verify the
// exact payload version their thread last committed (put over an
// existing key is one atomic value-record CAS — a store that dropped an
// overwrite shows up as a lost update). Any mismatch, lost update, or
// miss outside D's read-latest race fails the run (exit 1), so the CTest
// smoke entry doubles as an end-to-end correctness check of the KV
// subsystem under concurrency — batched paths included.
#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util/ycsb.hpp"
#include "common.hpp"
#include "kv/store.hpp"

namespace {

using namespace flit;
using namespace flit::bench;

struct JsonRow {
  std::string words, layout, mix;
  std::size_t batch;
  double mops, pwbs_per_op, pfences_per_op;
  double redundant_pwbs_per_op, empty_pfences_per_op;
  std::uint64_t misses, mismatches, lost_updates;
};

struct Totals {
  std::uint64_t mismatches = 0;
  std::uint64_t lost_records = 0;
  std::uint64_t lost_updates = 0;
  std::vector<JsonRow> rows;
};

template <class KV>
void run_one(const char* name, const char* layout, KV& store,
             const YcsbConfig& cfg, const Zipfian& zipf, CsvWriter& csv,
             Table& table, Totals& tot) {
  ycsb_load(store, cfg);
  const YcsbResult r = run_ycsb(store, cfg, zipf);
  tot.mismatches += r.value_mismatches;
  tot.lost_updates += r.lost_updates;
  // With atomic in-place overwrites, every mix whose reads target keys
  // that are never removed must never miss: A/B/C/F read only prefilled
  // keys (updates and RMWs replace in place — no visibility gap), and
  // under E scans start at a prefilled key and nothing is ever removed.
  // Only D's read-latest reads may race the insert they skewed towards.
  if (!cfg.mix.read_latest) {
    tot.lost_records += r.read_misses;
  }

  const std::string batch_s = Table::fmt_u(cfg.batch);
  csv.row({name, layout, cfg.mix.name, batch_s, Table::fmt(r.mops(), 3),
           Table::fmt(r.pwbs_per_op(), 3), Table::fmt(r.pfences_per_op(), 3),
           Table::fmt(r.redundant_pwbs_per_op(), 4),
           Table::fmt(r.empty_pfences_per_op(), 4),
           Table::fmt_u(r.read_misses), Table::fmt_u(r.value_mismatches),
           Table::fmt_u(r.lost_updates)});
  table.add_row({name, layout, cfg.mix.name, batch_s,
                 Table::fmt(r.mops(), 3), Table::fmt(r.pwbs_per_op(), 3),
                 Table::fmt(r.pfences_per_op(), 3)});
  tot.rows.push_back({name, layout, cfg.mix.name, cfg.batch, r.mops(),
                      r.pwbs_per_op(), r.pfences_per_op(),
                      r.redundant_pwbs_per_op(), r.empty_pfences_per_op(),
                      r.read_misses, r.value_mismatches, r.lost_updates});
}

template <class Words>
void run_words(const char* name, const YcsbConfig& base, const Zipfian& zipf,
               CsvWriter& csv, Table& table, Totals& tot) {
  const YcsbMix mixes[] = {YcsbMix::a(), YcsbMix::b(), YcsbMix::c(),
                           YcsbMix::d(), YcsbMix::f()};
  for (const YcsbMix& mix : mixes) {
    recl::Ebr::instance().drain_all();
    pmem::Pool::instance().reset();

    YcsbConfig cfg = base;
    cfg.mix = mix;

    // 8 shards, sized so chains stay short at the prefilled record count.
    kv::Store<Words, NVTraverse> store(
        8, std::max<std::size_t>(cfg.record_count / 8, 64));
    run_one(name, "hashed", store, cfg, zipf, csv, table, tot);
  }

  // YCSB E (95% short ordered scans / 5% inserts) runs on the ordered,
  // range-partitioned store — the hashed layout cannot serve scans — and
  // F runs there a second time so the overwrite CAS is verified on both
  // backends. The partition range matches the prefilled keyspace plus
  // 1/8 headroom: the prefill (and the zipfian scan starts) spread
  // across all 8 shards, and the insert frontier grows into the top
  // shard's slack before clamping there.
  for (const YcsbMix& mix : {YcsbMix::e(), YcsbMix::f()}) {
    recl::Ebr::instance().drain_all();
    pmem::Pool::instance().reset();

    YcsbConfig cfg = base;
    cfg.mix = mix;
    const auto rc = static_cast<std::int64_t>(cfg.record_count);
    kv::OrderedStore<Words, NVTraverse> store(8, /*capacity_per_shard=*/64,
                                              kv::KeyRange{0, rc + rc / 8});
    run_one(name, "ordered", store, cfg, zipf, csv, table, tot);
  }
}

/// The batched multi-op sweep: flit-HT words, A/B/C/F, both layouts,
/// batch ∈ `batches`. batch=1 runs the scalar per-op loop (the baseline
/// every larger batch is compared against); the scalar sweep already
/// measured it for every hashed mix and for ordered F on the same store,
/// so only ordered A/B/C run it here.
void run_batched(const YcsbConfig& base, const Zipfian& zipf,
                 const std::vector<std::size_t>& batches, CsvWriter& csv,
                 Table& table, Totals& tot) {
  const YcsbMix mixes[] = {YcsbMix::a(), YcsbMix::b(), YcsbMix::c(),
                           YcsbMix::f()};
  const auto sweep = [&](const char* layout, auto make_store) {
    for (const YcsbMix& mix : mixes) {
      const bool scalar_measured = std::string_view(layout) == "hashed" ||
                                   std::string_view(mix.name) == "F";
      for (const std::size_t batch : batches) {
        if (batch == 1 && scalar_measured) continue;
        recl::Ebr::instance().drain_all();
        pmem::Pool::instance().reset();

        YcsbConfig cfg = base;
        cfg.mix = mix;
        cfg.batch = batch;
        auto store = make_store(cfg);
        run_one("flit-ht", layout, store, cfg, zipf, csv, table, tot);
      }
    }
  };
  sweep("hashed", [](const YcsbConfig& cfg) {
    return kv::Store<HashedWords, NVTraverse>(
        8, std::max<std::size_t>(cfg.record_count / 8, 64));
  });
  sweep("ordered", [](const YcsbConfig& cfg) {
    const auto rc = static_cast<std::int64_t>(cfg.record_count);
    return kv::OrderedStore<HashedWords, NVTraverse>(
        8, /*capacity_per_shard=*/64, kv::KeyRange{0, rc + rc / 8});
  });
}

/// Write the machine-readable summary next to the CSV stream. One flat
/// JSON object, no dependencies — the fields mirror the CSV columns.
void write_json(const char* path, const Totals& tot, std::uint64_t records,
                int threads, double seconds, bool ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("ycsb_kv: warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ycsb_kv\",\n  \"records\": %llu,\n"
               "  \"threads\": %d,\n  \"seconds_per_point\": %.3f,\n"
               "  \"ok\": %s,\n  \"rows\": [\n",
               static_cast<unsigned long long>(records), threads, seconds,
               ok ? "true" : "false");
  for (std::size_t i = 0; i < tot.rows.size(); ++i) {
    const JsonRow& r = tot.rows[i];
    std::fprintf(
        f,
        "    {\"words\": \"%s\", \"layout\": \"%s\", \"mix\": \"%s\", "
        "\"batch\": %zu, \"mops\": %.4f, \"pwbs_per_op\": %.4f, "
        "\"pfences_per_op\": %.4f, \"redundant_pwbs_per_op\": %.4f, "
        "\"empty_pfences_per_op\": %.4f, \"misses\": %llu, "
        "\"mismatches\": %llu, \"lost_updates\": %llu}%s\n",
        r.words.c_str(), r.layout.c_str(), r.mix.c_str(), r.batch, r.mops,
        r.pwbs_per_op, r.pfences_per_op, r.redundant_pwbs_per_op,
        r.empty_pfences_per_op,
        static_cast<unsigned long long>(r.misses),
        static_cast<unsigned long long>(r.mismatches),
        static_cast<unsigned long long>(r.lost_updates),
        i + 1 < tot.rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("ycsb_kv: wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::init(argc, argv);
  const std::uint64_t records = env.args.full ? 1'000'000 : 20'000;
  const std::size_t value_bytes = 100;  // YCSB default payload

  std::printf(
      "# ycsb_kv: records=%llu value=%zuB shards=8 method=%s\n"
      "# scalar: A-D, F hashed; E (scans) + F ordered. batched: A/B/C/F\n"
      "# on both layouts, batch in {1,4,16,64} (--batch=N restricts)\n",
      static_cast<unsigned long long>(records), value_bytes,
      NVTraverse::name);

  Table table(
      {"words", "layout", "mix", "batch", "Mops", "pwbs/op", "pfences/op"});
  // redundant_pwbs/op needs a FLIT_CHECKED build to be nonzero (the
  // lint lives in the shadow line state); empty_pfences/op is always on.
  CsvWriter csv("ycsb_kv",
                {"words", "layout", "mix", "batch", "Mops", "pwbs/op",
                 "pfences/op", "redundant_pwbs/op", "empty_pfences/op",
                 "misses", "mismatches", "lost_updates"});
  Totals tot;

  YcsbConfig base;
  base.threads = env.threads;
  base.record_count = records;
  base.value_bytes = value_bytes;
  base.duration_s = env.seconds;
  // One generator for the whole sweep: the zeta sum is memoized, but the
  // object itself is also reusable across phases.
  const Zipfian zipf(base.record_count, base.zipf_theta);

  run_words<HashedWords>("flit-ht", base, zipf, csv, table, tot);
  run_words<AdjacentWords>("flit-adjacent", base, zipf, csv, table, tot);
  run_words<PerLineWords>("flit-perline", base, zipf, csv, table, tot);
  run_words<PlainWords>("plain", base, zipf, csv, table, tot);
  run_words<VolatileWords>("non-persistent", base, zipf, csv, table, tot);

  std::vector<std::size_t> batches = {1, 4, 16, 64};
  if (env.args.batch > 0) {
    batches = {1, static_cast<std::size_t>(env.args.batch)};
    if (env.args.batch == 1) batches = {1};
  }
  run_batched(base, zipf, batches, csv, table, tot);

  table.print("YCSB over the sharded KV store (NVtraverse)");
  std::printf(
      "\nExpected shape: FliT variants cluster together well above plain\n"
      "and approach the non-persistent ceiling as the read share grows\n"
      "(C > B > A); D sits near B (inserts are rare, reads hit hot\n"
      "keys); F sits near A (RMW = read + overwrite put). E's op rate\n"
      "is lower than A-D (each op is a multi-key ordered scan on the\n"
      "skiplist store), but the same FliT-vs-plain ordering holds. In\n"
      "the batched sweep, pfences/op falls roughly as 1/batch for the\n"
      "write mixes (coalesced record fence + shared publish fence) and\n"
      "throughput rises accordingly; batch=1 is the scalar baseline.\n");

  const bool ok =
      tot.mismatches == 0 && tot.lost_records == 0 && tot.lost_updates == 0;
  write_json("BENCH_ycsb_kv.json", tot, records, env.threads, env.seconds,
             ok);
  if (!ok) {
    std::printf(
        "ycsb_kv: FAILED (%llu value mismatches, %llu lost records, "
        "%llu lost updates)\n",
        static_cast<unsigned long long>(tot.mismatches),
        static_cast<unsigned long long>(tot.lost_records),
        static_cast<unsigned long long>(tot.lost_updates));
    return 1;
  }
  std::printf("ycsb_kv: OK\n");
  return 0;
}
