// Generic artifact-store tests: golden digest pinning (an accidental
// hasher or key-schema change would silently invalidate every on-disk
// artifact — it must fail loudly here instead), the in-memory map under
// single-flight contention (one build per key, values outlive clear()),
// the disk tier's manifest-driven LRU GC (the artifact dir is provably
// bounded, a failed manifest flush never fails an artifact store), the v2
// binary container (round trip, corruption heal, v1-text artifacts
// reclaimed), the cross-process single-flight lock
// (fork-based: two cold processes sharing one dir build each digest
// exactly once), and cached-vs-uncached byte-identity for the CEM
// policy-weights kind at every thread count.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/binary_io.hpp"
#include "core/fingerprint.hpp"
#include "nn/cem.hpp"
#include "nn/weights_store.hpp"
#include "safety/table_cache.hpp"
#include "util/expect.hpp"

namespace seo {
namespace {

// --- Test artifact kind -----------------------------------------------------

/// A tiny synthetic kind so store mechanics are tested without paying for
/// table builds: the payload is an explicit string of a chosen size.
struct BlobKey {
  std::uint64_t id = 0;
  std::uint64_t generation = 0;

  std::uint64_t digest() const {
    FingerprintHasher h;
    h.mix(std::string_view("test-blob-key"));
    h.mix(id);
    h.mix(generation);
    return h.digest();
  }
  std::string hex() const { return fingerprint_hex(digest()); }
  bool operator==(const BlobKey& other) const {
    return id == other.id && generation == other.generation;
  }
};

struct Blob {
  std::uint64_t id = 0;
  std::string payload;
};

struct BlobTraits {
  using Key = BlobKey;
  using Value = Blob;
  static const char* kind() { return "blob"; }
  static int version() { return 1; }
  static void encode(const Blob& blob, BinaryWriter& out) {
    out.u64(blob.id);
    out.str(blob.payload);
  }
  static Blob decode(BinaryReader& in) {
    Blob blob;
    blob.id = in.u64();
    blob.payload = in.str();
    return blob;
  }
  static void validate(const Key& key, const Blob& blob) {
    if (blob.id != key.id)
      throw ContractViolation("blob artifact does not match its key");
  }
};

using BlobStore = ArtifactStore<BlobTraits>;

BlobStore::Builder blob_builder(const BlobKey& key, std::size_t bytes,
                                std::atomic<int>* builds = nullptr) {
  return [key, bytes, builds] {
    if (builds != nullptr) ++*builds;
    auto blob = std::make_unique<Blob>();
    blob->id = key.id;
    blob->payload.assign(bytes, static_cast<char>('a' + key.id % 26));
    return blob;
  };
}

/// RAII temp directory for disk-tier tests.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("seo_artifact_store_" + tag + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Store bookkeeping files (the manifest plus the lock sidecars) —
/// everything in the dir that is not an artifact.
bool is_store_metadata(const std::string& name) {
  if (name == "manifest.bin") return true;
  return name.size() > 5 && name.compare(name.size() - 5, 5, ".lock") == 0;
}

std::vector<std::string> dir_artifacts(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!is_store_metadata(name)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (is_store_metadata(entry.path().filename().string())) continue;
    total += entry.file_size();
  }
  return total;
}

// --- Golden digests ---------------------------------------------------------
//
// These pin the canonical hasher and every key schema to known values: a
// change to FNV mixing, field order, or the fingerprinted field set will
// move a digest and fail here — BEFORE it silently orphans every artifact
// written by earlier builds.  If a change is *intentional*, bump the
// kind's key-schema constant and re-pin.

TEST(GoldenDigests, FingerprintHasherIsPinned) {
  // Empty hasher = FNV-1a 64-bit offset basis.
  EXPECT_EQ(FingerprintHasher{}.digest(), 14695981039346656037ull);
  EXPECT_EQ(FingerprintHasher{}.hex(), "cbf29ce484222325");

  FingerprintHasher h;
  h.mix(std::uint64_t{1});
  h.mix(1.5);
  h.mix(std::string_view("seo"));
  EXPECT_EQ(h.hex(), "9686520aeb690357");
}

TEST(GoldenDigests, DeadlineTableKeyIsPinned) {
  EXPECT_EQ(DeadlineTableKey{}.hex(), "33e1833ba33c08b3");

  DeadlineTableKey rig;  // the paper-default episode key shape
  rig.table.max_distance = LipschitzIntervalConfig{}.sensing_range;
  rig.body_radius = BarrierConfig{}.body_radius;
  EXPECT_EQ(rig.hex(), "d8bfd9b31de26b8f");
}

TEST(GoldenDigests, RolloutTableKeyIsPinned) {
  EXPECT_EQ(RolloutTableKey{}.hex(), "b78d31c20a87f449");
}

TEST(GoldenDigests, CemWeightsKeyIsPinned) {
  nn::CemWeightsKey key;
  key.arch.sizes = {8, 24, 24, 2};
  key.arch.hidden_act = nn::Activation::kTanh;
  key.arch.output_act = nn::Activation::kTanh;
  key.seed = 7;
  key.init_digest = 5;
  key.objective_tag = "golden";
  key.objective_digest = 11;
  EXPECT_EQ(key.hex(), "c5fc66773432c020");
}

// --- Key sensitivity for the new kinds --------------------------------------

TEST(RolloutTableKey, EveryContentFieldMovesTheDigest) {
  const RolloutTableKey base{};
  std::vector<RolloutTableKey> variants(20, base);
  variants[0].table.distance_bins += 2;
  variants[1].table.bearing_bins += 2;
  variants[2].table.speed_bins += 2;
  variants[3].table.max_distance += 1.0;
  variants[4].table.max_speed += 1.0;
  variants[5].table.obstacle_radius += 0.1;
  variants[6].rollout.sensing_range += 1.0;
  variants[7].rollout.horizon_s += 0.5;
  variants[8].rollout.step_s += 0.001;
  variants[9].rollout.bisection_iters += 2;
  variants[10].model.wheelbase_front += 0.1;
  variants[11].model.wheelbase_rear += 0.1;
  variants[12].model.max_steer += 0.05;
  variants[13].model.max_accel += 0.5;
  variants[14].model.max_brake += 0.5;
  variants[15].model.drag_coeff += 0.01;
  variants[16].model.max_speed += 1.0;
  variants[17].barrier.margin += 0.1;
  variants[18].road.length += 5.0;
  variants[19].body_radius += 0.05;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].digest(), base.digest()) << "variant " << i;
    EXPECT_FALSE(variants[i] == base) << "variant " << i;
  }
  // The build-parallelism knob is an execution parameter, not content.
  RolloutTableKey threads = base;
  threads.table.threads = 8;
  EXPECT_EQ(threads.digest(), base.digest());
  EXPECT_TRUE(threads == base);
}

TEST(CemWeightsKey, ContentFieldsMoveTheDigestAndThreadsDoNot) {
  nn::CemWeightsKey base;
  base.arch.sizes = {4, 8, 2};
  std::vector<nn::CemWeightsKey> variants(11, base);
  variants[0].arch.sizes = {4, 9, 2};
  variants[1].arch.hidden_act = nn::Activation::kRelu;
  variants[2].arch.output_act = nn::Activation::kSigmoid;
  variants[3].cem.population += 1;
  variants[4].cem.elites += 1;
  variants[5].cem.generations += 1;
  variants[6].cem.init_stddev += 0.1;
  variants[7].seed += 1;
  variants[8].objective_tag = "other";
  variants[9].objective_digest += 1;
  variants[10].init_digest += 1;  // a different initial mean trains differently
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].digest(), base.digest()) << "variant " << i;
    EXPECT_FALSE(variants[i] == base) << "variant " << i;
  }
  nn::CemWeightsKey threads = base;
  threads.cem.threads = 8;
  EXPECT_EQ(threads.digest(), base.digest());
  EXPECT_TRUE(threads == base);
}

// --- In-memory map: clear(), held values, concurrent gets -------------------

TEST(ArtifactStoreMemory, ClearZeroesCountersAndNextGetRebuilds) {
  BlobStore store;
  const BlobKey a{7, 0};
  (void)store.get(a, blob_builder(a, 8));
  (void)store.get(a, blob_builder(a, 8));
  store.clear();
  const ArtifactStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(store.size(), 0u);
  std::atomic<int> builds{0};
  (void)store.get(a, blob_builder(a, 8, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST(ArtifactStoreMemory, ClearNeverInvalidatesAHeldValue) {
  BlobStore store;
  const BlobKey a{1, 0};
  const auto held = store.get(a, blob_builder(a, 64));
  store.clear();
  (void)store.get(BlobKey{2, 0}, blob_builder(BlobKey{2, 0}, 64));
  // The dropped entry's value is shared-ptr owned by the caller: reading
  // it after clear() must be safe (ASan-checked in CI).
  EXPECT_EQ(held->payload.size(), 64u);
  EXPECT_EQ(held->id, 1u);
}

TEST(ArtifactStoreMemory, ConcurrentGetsBuildEachKeyOnceAndCountEveryGet) {
  // The documented invariant under contention: one build per distinct key,
  // and hits + misses == the number of get() calls.  The TSan job runs
  // this over the locked hit path.
  BlobStore store;
  constexpr int kThreads = 4;
  constexpr int kGets = 200;
  constexpr std::uint64_t kKeys = 5;
  std::atomic<int> builds{0};
  std::atomic<int> wrong{0};
  // seo-lint: allow(raw-thread) -- the threads must contend on the store
  // mutex at once; pool partitioning would serialize them.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kGets; ++i) {
        const BlobKey key{static_cast<std::uint64_t>(t + i) % kKeys, 0};
        const auto blob = store.get(key, blob_builder(key, 16, &builds));
        if (blob->id != key.id || blob->payload.size() != 16u) ++wrong;
      }
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(builds.load(), static_cast<int>(kKeys));
  const ArtifactStoreStats stats = store.stats();
  EXPECT_EQ(stats.builds, kKeys);
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kGets));
  EXPECT_EQ(store.size(), kKeys);
}

// --- Disk tier: GC bounds the artifact dir ----------------------------------

TEST(ArtifactStoreDiskGc, SizeCapEvictsOldestByLru) {
  const TempDir dir("gc_size");
  BlobStore store;
  // 5 artifacts x ~300 payload bytes each, no caps while filling.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const BlobKey key{id, 0};
    (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                    blob_builder(key, 300));
  }
  ASSERT_EQ(dir_artifacts(dir.path).size(), 5u);

  // Touch id=1 so it becomes disk-MRU despite being stored first.
  {
    BlobStore fresh;
    const BlobKey key{1, 0};
    (void)fresh.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                    blob_builder(key, 300));
    EXPECT_EQ(fresh.stats().disk_loads, 1u);
  }

  // Cap at exactly 2 artifacts (sized from disk, so container framing
  // changes cannot skew the arithmetic): the sweep must keep the most
  // recently used ones — id=1 (just touched) and id=5 (last stored) —
  // and drop 2, 3, 4.
  const std::uint64_t unit = std::filesystem::file_size(
      dir.path / BlobStore::artifact_name(BlobKey{1, 0}));
  const std::uint64_t cap = 2 * unit;
  const ArtifactGcResult result = artifact_store_gc(dir.str(), cap, 0.0);
  EXPECT_EQ(result.removed, 3u);
  EXPECT_LE(result.bytes_after, cap);
  auto remaining = dir_artifacts(dir.path);
  ASSERT_EQ(remaining.size(), 2u);
  std::vector<std::string> expected = {
      BlobStore::artifact_name(BlobKey{1, 0}),
      BlobStore::artifact_name(BlobKey{5, 0})};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(remaining, expected);
  EXPECT_LE(dir_bytes(dir.path), cap);

  // The survivors still load cleanly (manifest rewrite kept them).
  BlobStore warm;
  (void)warm.get(BlobKey{5, 0}, ArtifactDiskOptions{dir.str(), 0, 0.0},
                 blob_builder(BlobKey{5, 0}, 300));
  EXPECT_EQ(warm.stats().disk_loads, 1u);
  EXPECT_EQ(warm.stats().builds, 0u);
}

TEST(ArtifactStoreDiskGc, StoresWithCapsKeepTheDirBounded) {
  const TempDir dir("gc_inline");
  BlobStore store;
  // Fill far past the cap; every store() runs a sweep, so the dir can
  // never exceed cap + one in-flight artifact.
  const std::uint64_t cap = 1000;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    const BlobKey key{id, 0};
    (void)store.get(key, ArtifactDiskOptions{dir.str(), cap, 0.0},
                    blob_builder(key, 300));
    EXPECT_LE(dir_bytes(dir.path), cap + 400) << "after artifact " << id;
  }
  // The newest artifact always survives its own store's sweep.
  const auto remaining = dir_artifacts(dir.path);
  ASSERT_FALSE(remaining.empty());
  EXPECT_TRUE(std::find(remaining.begin(), remaining.end(),
                        BlobStore::artifact_name(BlobKey{12, 0})) !=
              remaining.end());
}

TEST(ArtifactStoreDiskGc, AgeCapDropsStaleArtifactsButKeepsMru) {
  const TempDir dir("gc_age");
  BlobStore store;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const BlobKey key{id, 0};
    (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                    blob_builder(key, 100));
  }
  // Backdate every manifest entry far past any cap (the manifest is the
  // LRU/age source of truth, so tests can time-travel deterministically).
  artifact_detail::debug_backdate_manifest(dir.str(), 1000);
  const ArtifactGcResult result =
      artifact_store_gc(dir.str(), 0, /*max_age_s=*/3600.0);
  // Everything is ancient; the sweep keeps only the most recently used.
  EXPECT_EQ(result.removed, 2u);
  const auto remaining = dir_artifacts(dir.path);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0], BlobStore::artifact_name(BlobKey{3, 0}));
}

TEST(ArtifactStoreDiskGc, UnmanagedFilesAreReclaimedFirst) {
  const TempDir dir("gc_unmanaged");
  std::filesystem::create_directories(dir.path);
  {
    // A PR 4-era artifact (or any foreign debris) has no manifest entry:
    // it must be the first thing a size-capped sweep reclaims.
    std::ofstream out(dir.path / "dtable-v1-0123456789abcdef.txt");
    out << std::string(500, 'x');
  }
  BlobStore store;
  const BlobKey key{1, 0};
  (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                  blob_builder(key, 100));
  (void)artifact_store_gc(dir.str(), 200, 0.0);
  const auto remaining = dir_artifacts(dir.path);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0], BlobStore::artifact_name(key));
}

TEST(ArtifactStoreDiskGc, FailedManifestFlushIsNotAFailedArtifactStore) {
  // A directory where the manifest belongs makes every manifest write's
  // rename fail: the periodic flush (every 8th use) and, with a cap set,
  // the GC sweep after each store.  The artifacts themselves are written
  // fine, so each store must count as a store, and the failed writes must
  // not leave their temp files behind.
  for (const std::uint64_t cap : {std::uint64_t{0}, std::uint64_t{1} << 30}) {
    const TempDir dir("manifest_blocked_" + std::to_string(cap));
    std::filesystem::create_directories(dir.path / "manifest.bin");
    BlobStore store;
    for (std::uint64_t id = 1; id <= 9; ++id) {
      const BlobKey key{id, 0};
      (void)store.get(key, ArtifactDiskOptions{dir.str(), cap, 0.0},
                      blob_builder(key, 32));
    }
    const ArtifactStoreStats stats = store.stats();
    EXPECT_EQ(stats.disk_stores, 9u) << "cap " << cap;
    EXPECT_EQ(stats.disk_failures, 0u) << "cap " << cap;
    const auto files = dir_artifacts(dir.path);
    EXPECT_EQ(files.size(), 9u) << "cap " << cap;
    for (const auto& name : files)
      EXPECT_EQ(name.rfind("manifest.bin.tmp.", 0), std::string::npos) << name;
  }
}

// --- Disk round trip + corruption for the generic header --------------------

TEST(ArtifactStoreDisk, RoundTripAndHeaderVerification) {
  const TempDir dir("roundtrip");
  const BlobKey key{7, 3};
  BlobStore cold;
  const auto built =
      cold.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
               blob_builder(key, 50));
  EXPECT_EQ(cold.stats().disk_stores, 1u);

  BlobStore warm;
  const auto loaded =
      warm.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
               blob_builder(key, 50));
  EXPECT_EQ(warm.stats().builds, 0u);
  EXPECT_EQ(warm.stats().disk_loads, 1u);
  EXPECT_EQ(loaded->payload, built->payload);

  // An artifact copied under another key's address re-proves its identity
  // via the header digest and is rejected (then healed by a rebuild).
  const BlobKey other{8, 3};
  std::filesystem::copy_file(dir.path / BlobStore::artifact_name(key),
                             dir.path / BlobStore::artifact_name(other));
  BlobStore reject;
  const auto rebuilt =
      reject.get(other, ArtifactDiskOptions{dir.str(), 0, 0.0},
                 blob_builder(other, 60));
  EXPECT_EQ(reject.stats().disk_failures, 1u);
  EXPECT_EQ(reject.stats().builds, 1u);
  EXPECT_EQ(rebuilt->id, 8u);
}

TEST(ArtifactStoreDisk, CorruptBinaryPayloadIsRejectedAndHealed) {
  const TempDir dir("bitrot");
  const BlobKey key{9, 1};
  {
    BlobStore seed;
    (void)seed.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                   blob_builder(key, 200));
  }
  // Flip one mid-file bit; a container checksum must catch it — silent
  // bit rot must rebuild, never hand back a mangled value.
  const std::filesystem::path artifact =
      dir.path / BlobStore::artifact_name(key);
  std::string blob;
  {
    std::ifstream in(artifact, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    blob = bytes.str();
  }
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
  {
    std::ofstream out(artifact, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  BlobStore store;
  std::atomic<int> builds{0};
  const auto rebuilt = store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                                 blob_builder(key, 200, &builds));
  EXPECT_EQ(store.stats().disk_failures, 1u);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(rebuilt->payload.size(), 200u);
  // The rebuild healed the file: a fresh store loads it cleanly.
  BlobStore healed;
  (void)healed.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                   blob_builder(key, 200, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(healed.stats().disk_loads, 1u);
  EXPECT_EQ(healed.stats().disk_failures, 0u);
}

TEST(ArtifactStoreDisk, LegacyTextArtifactIsRebuiltAsBinaryThenReclaimed) {
  const TempDir dir("legacy_text");
  std::filesystem::create_directories(dir.path);
  const BlobKey key{4, 2};
  // A pre-v2 text artifact under the old naming scheme: the binary store
  // never addresses .txt files, so the key is simply cold and rebuilds
  // into the v2 container alongside it...
  const std::string legacy = "blob-v1-" + key.hex() + ".txt";
  {
    std::ofstream out(dir.path / legacy);
    out << "seo-artifact blob 1 " << key.hex() << " 5\n4\nhello";
  }
  BlobStore store;
  std::atomic<int> builds{0};
  (void)store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                  blob_builder(key, 120, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(store.stats().disk_loads, 0u);
  EXPECT_EQ(store.stats().disk_failures, 0u);
  auto names = dir_artifacts(dir.path);
  EXPECT_EQ(names.size(), 2u);  // old text + new binary coexist
  // ...and, being unmanaged, the text file is the first thing a
  // size-capped sweep reclaims.
  const auto bin_size = std::filesystem::file_size(
      dir.path / BlobStore::artifact_name(key));
  (void)artifact_store_gc(dir.str(), bin_size, 0.0);
  names = dir_artifacts(dir.path);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], BlobStore::artifact_name(key));
}

// --- Cross-process single-flight --------------------------------------------

TEST(ArtifactStoreLock, StaleLockFileIsStolenAndReclaimed) {
  const TempDir dir("stale_lock");
  std::filesystem::create_directories(dir.path);
  const BlobKey key{6, 3};
  // A lock sidecar left by a crashed holder: flock dies with its process,
  // so acquiring (stealing) the stale lock must succeed without blocking.
  const std::filesystem::path lock =
      dir.path / (BlobStore::artifact_name(key) + ".lock");
  { std::ofstream out(lock); }
  BlobStore store;
  std::atomic<int> builds{0};
  const auto blob = store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                              blob_builder(key, 64, &builds));
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(blob->payload.size(), 64u);
  EXPECT_EQ(store.stats().lock_waits, 0u);  // stolen, never blocked on
  // The GC sweep reclaims idle sidecars (nobody holds them) without
  // touching the artifact they guard.
  EXPECT_TRUE(std::filesystem::exists(lock));
  (void)artifact_store_gc(dir.str(), 0, 0.0);
  EXPECT_FALSE(std::filesystem::exists(lock));
  EXPECT_TRUE(
      std::filesystem::exists(dir.path / BlobStore::artifact_name(key)));
}

TEST(ArtifactStoreLock, TwoColdProcessesBuildEachDigestExactlyOnce) {
  const TempDir dir("multiproc");
  std::filesystem::create_directories(dir.path);
  constexpr int kProcs = 2;
  constexpr std::uint64_t kDigests = 3;

  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: a fresh process image — its store and manifest cache are
      // cold; only the shared directory couples it to its sibling.
      int failures = 0;
      {
        BlobStore store;
        for (std::uint64_t id = 1; id <= kDigests; ++id) {
          const BlobKey key{id, 9};
          const auto blob = store.get(
              key, ArtifactDiskOptions{dir.str(), 0, 0.0}, [&] {
                // Every build leaves a per-process marker and dawdles long
                // enough that an unlocked sibling would double-build.
                std::ofstream marker(
                    dir.path / ("built-" + std::to_string(id) + "-by-" +
                                std::to_string(::getpid()) + ".marker"));
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
                return blob_builder(key, 64)();
              });
          if (blob == nullptr || blob->payload.size() != 64u) ++failures;
        }
      }
      ::_exit(failures);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  // Exactly one build marker per digest across both processes: the
  // advisory lock made the loser re-load what the winner stored instead
  // of rebuilding it.
  for (std::uint64_t id = 1; id <= kDigests; ++id) {
    const std::string prefix = "built-" + std::to_string(id) + "-by-";
    int markers = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path))
      if (entry.path().filename().string().rfind(prefix, 0) == 0) ++markers;
    EXPECT_EQ(markers, 1) << "digest id " << id;
    EXPECT_TRUE(std::filesystem::exists(
        dir.path / BlobStore::artifact_name(BlobKey{id, 9})));
  }
}

// --- CEM policy-weights kind ------------------------------------------------

/// Deterministic, thread-safe toy objective: peak at a fixed target.
double toy_objective(const nn::Vector& params) {
  double score = 0.0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double target = 0.1 * static_cast<double>(i % 7) - 0.3;
    const double d = params[i] - target;
    score -= d * d;
  }
  return score;
}

std::string serialized(const nn::Mlp& net) {
  std::ostringstream out;
  net.save(out);
  return out.str();
}

nn::CemWeightsKey toy_key(int threads) {
  nn::CemWeightsKey key;
  key.arch.sizes = {3, 6, 2};
  key.arch.hidden_act = nn::Activation::kTanh;
  key.arch.output_act = nn::Activation::kTanh;
  key.cem.population = 16;
  key.cem.elites = 4;
  key.cem.generations = 6;
  key.cem.init_stddev = 0.4;
  key.cem.threads = threads;
  key.seed = 99;
  key.objective_tag = "toy-quadratic";
  key.objective_digest = 12345;
  // Fingerprint the exact initial mean train_toy derives (xavier from
  // Rng(3)), the way real callers must.
  nn::Mlp seed_net(key.arch);
  Rng init_rng(3);
  seed_net.init_xavier(init_rng);
  key.init_digest = nn::fingerprint_parameters(seed_net.flatten_parameters());
  return key;
}

std::unique_ptr<nn::Mlp> train_toy(const nn::CemWeightsKey& key) {
  auto net = std::make_unique<nn::Mlp>(key.arch);
  Rng init_rng(3);
  net->init_xavier(init_rng);
  // The toy key's init_digest must track this initialization: lock it.
  EXPECT_EQ(nn::fingerprint_parameters(net->flatten_parameters()),
            key.init_digest);
  Rng cem_rng(key.seed);
  const nn::CemResult result = nn::cem_optimize(
      toy_objective, net->flatten_parameters(), key.cem, cem_rng);
  net->set_parameters(result.best_parameters);
  return net;
}

TEST(CemWeightsStore, CachedAndUncachedWeightsAreByteIdenticalAtAnyThreads) {
  // Ground truth: a direct serial training run, bypassing the store.
  const std::string truth = serialized(*train_toy(toy_key(1)));

  for (const int threads : {1, 2, 0}) {
    // The scoring fan-out must not change a single weight bit...
    const nn::CemWeightsKey key = toy_key(threads);
    EXPECT_EQ(serialized(*train_toy(key)), truth)
        << "direct training diverged at threads=" << threads;
    // ...and the store must hand back exactly the trained bytes, both on
    // the cold build and on a warm in-memory hit.
    nn::CemWeightsStore store;
    const auto cold = store.get(key, [&] { return train_toy(key); });
    EXPECT_EQ(serialized(*cold), truth) << "threads=" << threads;
    const auto warm = store.get(key, [&] { return train_toy(key); });
    EXPECT_EQ(warm.get(), cold.get());
    EXPECT_EQ(store.stats().builds, 1u);
  }
}

TEST(CemWeightsStore, DiskRoundTripIsByteIdentical) {
  const TempDir dir("cemw");
  const nn::CemWeightsKey key = toy_key(1);
  nn::CemWeightsStore cold;
  const auto trained = cold.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                                [&] { return train_toy(key); });
  EXPECT_EQ(cold.stats().disk_stores, 1u);

  nn::CemWeightsStore warm;
  const auto loaded = warm.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                               [&] { return train_toy(key); });
  EXPECT_EQ(warm.stats().builds, 0u);
  EXPECT_EQ(warm.stats().disk_loads, 1u);
  // The canonical serialization round-trips every double exactly: a warm
  // load is bit-identical to the training run it replaces.
  EXPECT_EQ(serialized(*loaded), serialized(*trained));
}

TEST(CemWeightsStore, PoisonedArtifactIsRejectedAndRebuilt) {
  const TempDir dir("cemw_poison");
  const nn::CemWeightsKey key = toy_key(1);
  {
    nn::CemWeightsStore seed_store;
    (void)seed_store.get(key, ArtifactDiskOptions{dir.str(), 0, 0.0},
                         [&] { return train_toy(key); });
  }
  // Poison one weight to NaN and re-wrap the payload in a *valid* v2
  // container (checksums over the poisoned bytes): only the decode-time
  // finiteness validation stands between this file and a NaN policy.
  auto poisoned = train_toy(key);
  nn::Vector params = poisoned->flatten_parameters();
  params[params.size() / 2] = std::numeric_limits<double>::quiet_NaN();
  poisoned->set_parameters(params);
  std::string payload;
  BinaryWriter writer(payload);
  poisoned->encode(writer);
  artifact_detail::write_artifact(ArtifactDiskOptions{dir.str(), 0, 0.0},
                                  nn::CemWeightsTraits::kind(),
                                  nn::CemWeightsTraits::version(), key.digest(),
                                  payload);
  nn::CemWeightsStore store;
  const auto rebuilt = store.get(
      key, ArtifactDiskOptions{dir.str(), 0, 0.0}, [&] { return train_toy(key); });
  EXPECT_EQ(store.stats().disk_failures, 1u);
  EXPECT_EQ(store.stats().builds, 1u);
  for (const double v : rebuilt->flatten_parameters())
    EXPECT_TRUE(std::isfinite(v));
}

// --- Registry ---------------------------------------------------------------

TEST(ArtifactStoreRegistry, GlobalStoresReportTheirKinds) {
  (void)DeadlineTableCache::global();
  (void)RolloutTableStore::global();
  (void)nn::cem_weights_store();
  const auto rows = ArtifactStoreRegistry::global().snapshot();
  std::vector<std::string> kinds;
  for (const auto& row : rows) kinds.push_back(row.kind);
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), "dtable") != kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), "rphi") != kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), "cemw") != kinds.end());
}

}  // namespace
}  // namespace seo
