#include "core/artifact_store.hpp"

#include "core/wallclock.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace seo {

namespace fs = std::filesystem;

ArtifactStoreRegistry& ArtifactStoreRegistry::global() {
  static ArtifactStoreRegistry registry;
  return registry;
}

void ArtifactStoreRegistry::add(Handle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  handles_.push_back(std::move(handle));
}

std::vector<ArtifactKindStats> ArtifactStoreRegistry::snapshot() const {
  std::vector<Handle> handles;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handles = handles_;
  }
  // Stats calls happen outside the registry lock: each store takes its own
  // mutex and must never wait behind an unrelated kind's snapshot.
  std::vector<ArtifactKindStats> out;
  out.reserve(handles.size());
  for (const auto& handle : handles)
    out.push_back(ArtifactKindStats{handle.kind, handle.stats()});
  // Registration order depends on which thread first touched each global
  // accessor; sort by kind so stats lines print identically every run.
  std::sort(out.begin(), out.end(),
            [](const ArtifactKindStats& a, const ArtifactKindStats& b) {
              return a.kind < b.kind;
            });
  return out;
}

void ArtifactStoreRegistry::clear_all() const {
  std::vector<Handle> handles;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handles = handles_;
  }
  for (const auto& handle : handles) handle.clear();
}

namespace artifact_detail {

namespace {

// --- On-disk names ---------------------------------------------------------

constexpr const char* kManifestBinName = "manifest.bin";
/// The directory-wide advisory lock every manifest flush and GC sweep
/// serializes on (never unlinked — unlinking an advisory lock file is the
/// classic two-holders race).
constexpr const char* kManifestLockName = "manifest.lock";

/// Binary manifest v2: magic, version, entry count, (name, seq, bytes,
/// last_used) per entry, FNV-1a checksum tail.  Concurrent writers are
/// tolerated by merging on read with last-writer-wins sequence numbers.
constexpr char kManifestMagic[13] = "seo-manifest";  // includes the NUL
constexpr std::uint16_t kManifestVersion = 2;

/// v2 artifact container magic (13 bytes, includes the NUL).
constexpr char kArtifactMagic[13] = "seo-artifact";
constexpr std::uint16_t kArtifactContainerVersion = 2;

/// Temp files from crashed writers older than this are GC'd.
constexpr double kStaleTmpAgeS = 300.0;

/// In-memory manifest mutations per automatic flush to disk.
constexpr unsigned kManifestFlushEvery = 8;

struct ManifestEntry {
  std::uint64_t seq = 0;        ///< logical last-use order (higher = newer)
  std::uint64_t bytes = 0;
  std::int64_t last_used = 0;   ///< unix seconds, for the age cap
};

using Manifest = std::map<std::string, ManifestEntry>;

// Manifest last-use stamps need a cross-process, cross-host epoch, which
// only wall time provides; core/wallclock documents why this is the one
// sanctioned wall-clock read and the GC-only contract that keeps it safe.
std::int64_t now_unix() { return wall_clock_unix_seconds(); }

/// RAII blocking flock on the directory's manifest.lock — serializes
/// manifest flushes and GC sweeps across processes.  Degrades to unlocked
/// (held() false) on filesystems that refuse advisory locks; flushes then
/// still go through temp-write + rename, so readers never see a torn
/// manifest, only possibly a stale one.
class DirLock {
 public:
  explicit DirLock(const fs::path& dir) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string path = (dir / kManifestLockName).string();
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) return;
    if (::flock(fd, LOCK_EX) != 0) {
      ::close(fd);
      return;
    }
    fd_ = fd;
  }
  ~DirLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Best-effort read of the on-disk manifest; a missing or malformed one is
/// an empty one (the GC then falls back to "everything is oldest", which
/// only costs warmth, never correctness).
Manifest read_manifest_disk(const fs::path& dir) {
  std::ifstream in(dir / kManifestBinName, std::ios::binary);
  if (!in) return Manifest{};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string blob = buffer.str();
  Manifest manifest;
  try {
    BinaryReader r{std::string_view(blob)};
    const std::size_t start = r.offset();
    char magic[sizeof kManifestMagic];
    r.bytes(magic, sizeof magic);
    if (std::memcmp(magic, kManifestMagic, sizeof magic) != 0 ||
        r.u16() != kManifestVersion)
      return Manifest{};
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string name = r.str();
      ManifestEntry entry;
      entry.seq = r.u64();
      entry.bytes = r.u64();
      entry.last_used = r.i64();
      manifest[name] = entry;
    }
    r.verify_checksum_from(start, "manifest");
    r.require_exhausted("manifest");
    return manifest;
  } catch (const std::exception&) {
    return Manifest{};  // corrupt manifest: start cold, lose only warmth
  }
}

/// Writes `blob` to `tmp`, then renames it over `path`, so concurrent
/// readers (other processes) only ever observe a complete file.  On failure
/// the temp file is removed and the error rethrown.
void write_via_rename(const fs::path& tmp, const fs::path& path,
                      const std::string& blob) {
  try {
    {
      std::ofstream out(tmp, std::ios::binary);
      if (!out) throw ContractViolation("cannot open " + tmp.string());
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
      if (!out) throw ContractViolation("short write to " + tmp.string());
    }
    fs::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
}

void write_manifest_disk(const fs::path& dir, const Manifest& manifest) {
  const fs::path path = dir / kManifestBinName;
  const fs::path tmp =
      dir / (std::string(kManifestBinName) + ".tmp." +
             std::to_string(static_cast<long long>(::getpid())));
  std::string blob;
  BinaryWriter w(blob);
  const std::size_t start = w.mark();
  w.bytes(kManifestMagic, sizeof kManifestMagic);
  w.u16(kManifestVersion);
  w.u32(static_cast<std::uint32_t>(manifest.size()));
  for (const auto& [file, entry] : manifest) {
    w.str(file);
    w.u64(entry.seq);
    w.u64(entry.bytes);
    w.i64(entry.last_used);
  }
  w.checksum_from(start);
  write_via_rename(tmp, path, blob);
}

std::uint64_t max_seq(const Manifest& manifest) {
  std::uint64_t seq = 0;
  for (const auto& [file, entry] : manifest)
    seq = std::max(seq, entry.seq);
  return seq;
}

/// Last-writer-wins merge: per file, the entry with the higher sequence
/// number survives (two processes that both used a file disagree only
/// about *how recently* — either answer keeps the file warm).
void merge_manifest(Manifest& into, const Manifest& from) {
  for (const auto& [file, entry] : from) {
    auto it = into.find(file);
    if (it == into.end() || entry.seq > it->second.seq)
      into[file] = entry;
  }
}

bool is_tmp_file(const std::string& name) {
  return name.find(".tmp.") != std::string::npos;
}

bool is_lock_file(const std::string& name) {
  return name.size() > 5 && name.compare(name.size() - 5, 5, ".lock") == 0;
}

/// The per-directory in-memory manifest: loaded from disk once per
/// process, mutated in memory (O(1) per artifact use instead of an O(dir)
/// text read-modify-write), flushed under the directory lock every few
/// updates, on GC, and at process exit.
class ManifestCache {
 public:
  explicit ManifestCache(fs::path dir) : dir_(std::move(dir)) {}

  ~ManifestCache() {
    // Exit flush: best effort, never throws out of a destructor.
    try {
      flush();
    } catch (...) {
    }
  }

  /// The process-wide cache for `dir` (normalized), created on first use.
  /// The registry is a function-local static destroyed at process exit —
  /// each cache's destructor flushes its dirty manifest, which is the
  /// "flush on exit" leg of the manifest policy.
  static ManifestCache& for_dir(const fs::path& dir) {
    static std::mutex registry_mutex;
    static std::map<std::string, std::unique_ptr<ManifestCache>> registry;
    std::error_code ec;
    fs::path normal = fs::weakly_canonical(dir, ec);
    if (ec) normal = fs::absolute(dir, ec);
    const std::string key = normal.empty() ? dir.string() : normal.string();
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto& slot = registry[key];
    if (!slot) slot = std::make_unique<ManifestCache>(dir);
    return *slot;
  }

  /// Every live cache, for flush_manifests() and the exit hook.
  static void flush_all() {
    for (ManifestCache* cache : instances()) cache->flush();
  }

  void record_use(const std::string& file, std::uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    ensure_loaded_locked();
    ManifestEntry& entry = mem_[file];
    entry.seq = ++max_seq_;
    entry.bytes = bytes;
    entry.last_used = now_unix();
    if (++dirty_ >= kManifestFlushEvery) flush_locked();
  }

  void flush() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dirty_ == 0) return;
    // A deleted directory (a test's temp dir, an operator's rm -rf) makes
    // its manifest moot: don't resurrect the dir just to describe nothing.
    std::error_code ec;
    if (!fs::is_directory(dir_, ec)) {
      dirty_ = 0;
      return;
    }
    flush_locked();
  }

  void debug_backdate(std::int64_t last_used) {
    std::lock_guard<std::mutex> lock(mutex_);
    ensure_loaded_locked();
    DirLock dir_lock(dir_);
    merge_manifest(mem_, read_manifest_disk(dir_));
    max_seq_ = std::max(max_seq_, max_seq(mem_));
    for (auto& [file, entry] : mem_) entry.last_used = last_used;
    write_manifest_disk(dir_, mem_);
    dirty_ = 0;
  }

  ArtifactGcResult gc(std::uint64_t max_bytes, double max_age_s);

 private:
  static std::vector<ManifestCache*>& instances_storage() {
    static std::vector<ManifestCache*> list;
    return list;
  }
  static std::mutex& instances_mutex() {
    static std::mutex mutex;
    return mutex;
  }
  static std::vector<ManifestCache*> instances() {
    std::lock_guard<std::mutex> lock(instances_mutex());
    return instances_storage();
  }

  void ensure_loaded_locked() {
    if (loaded_) return;
    mem_ = read_manifest_disk(dir_);
    max_seq_ = max_seq(mem_);
    loaded_ = true;
    std::lock_guard<std::mutex> lock(instances_mutex());
    instances_storage().push_back(this);
  }

  /// Merge-with-disk + write, under the directory lock.  Assumes mutex_.
  void flush_locked() {
    DirLock dir_lock(dir_);
    merge_manifest(mem_, read_manifest_disk(dir_));
    max_seq_ = std::max(max_seq_, max_seq(mem_));
    write_manifest_disk(dir_, mem_);
    dirty_ = 0;
  }

  std::mutex mutex_;
  fs::path dir_;
  Manifest mem_;
  bool loaded_ = false;
  unsigned dirty_ = 0;
  std::uint64_t max_seq_ = 0;
};

/// Records one artifact use in the directory manifest, best effort: a
/// failed flush costs the GC some LRU precision, never the artifact, so it
/// is a warning, not an error.
void record_manifest_use(const fs::path& dir, const std::string& file,
                         std::uint64_t bytes) {
  try {
    ManifestCache::for_dir(dir).record_use(file, bytes);
  } catch (const std::exception& e) {
    log_warn() << "artifact store: manifest update failed for " << file
               << " (" << e.what() << ")";
  }
}

}  // namespace

// --- DigestLock ------------------------------------------------------------

DigestLock::DigestLock(const std::string& dir,
                       const std::string& artifact_name) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + artifact_name + ".lock";
  // open / flock / verify loop: the GC may unlink a lock file between our
  // open and flock (it only reclaims locks nobody holds), and a lock on an
  // unlinked inode excludes nobody — so after acquiring, the fd's inode
  // must still be the one the path names, else retry on the fresh file.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) return;  // degrade: per-process single-flight only
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      if (errno != EWOULDBLOCK) {
        ::close(fd);  // e.g. ENOLCK: filesystem refuses advisory locks
        return;
      }
      waited_ = true;  // another process is building this digest right now
      if (::flock(fd, LOCK_EX) != 0) {
        ::close(fd);
        return;
      }
    }
    struct stat held {};
    struct stat current {};
    if (::fstat(fd, &held) == 0 && ::stat(path.c_str(), &current) == 0 &&
        held.st_ino == current.st_ino && held.st_dev == current.st_dev) {
      fd_ = fd;
      return;
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
  }
}

DigestLock::~DigestLock() {
  // Release but never unlink: unlinking a lock file another process has
  // already opened creates two holders of different inodes.  Empty .lock
  // sidecars are reclaimed by the GC sweep (which checks acquirability).
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

// --- v2 binary artifact container -------------------------------------------

std::string artifact_file_name(const std::string& kind, int version,
                               const std::string& hex) {
  return kind + "-v" + std::to_string(version) + "-" + hex + ".bin";
}

bool read_artifact_payload(const std::string& path, const std::string& kind,
                           int version, std::uint64_t digest,
                           std::string& payload_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // cold store: not a failure
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string blob = buffer.str();
  // The file name is the address, but never trust content blindly: the
  // checksummed header repeats the kind, format version and full key
  // digest (a renamed or hand-edited artifact must re-prove its identity
  // before the payload is even parsed), and the payload carries its own
  // checksum so truncation or bit rot surfaces here, not as a wrong value.
  try {
    BinaryReader r{std::string_view(blob)};
    const std::size_t start = r.offset();
    char magic[sizeof kArtifactMagic];
    r.bytes(magic, sizeof magic);
    if (std::memcmp(magic, kArtifactMagic, sizeof magic) != 0)
      throw ContractViolation("not a seo-artifact container: " + path);
    const std::uint16_t container = r.u16();
    if (container != kArtifactContainerVersion)
      throw ContractViolation("unsupported artifact container version " +
                              std::to_string(container) + ": " + path);
    const std::string file_kind = r.str(256);
    const std::uint32_t file_version = r.u32();
    const std::uint64_t file_digest = r.u64();
    const std::uint64_t payload_size = r.u64();
    r.verify_checksum_from(start, "artifact header");
    if (file_kind != kind ||
        file_version != static_cast<std::uint32_t>(version) ||
        file_digest != digest)
      throw ContractViolation("artifact header does not match its key: " +
                              path);
    const std::size_t payload_start = r.offset();
    const std::string_view payload = r.view(payload_size);
    r.verify_checksum_from(payload_start, "artifact payload");
    r.require_exhausted("artifact container");
    payload_out.assign(payload);
    return true;
  } catch (const BinaryIoError& e) {
    throw ContractViolation("corrupt artifact container " + path + ": " +
                            e.what());
  }
}

void write_artifact(const ArtifactDiskOptions& disk, const std::string& kind,
                    int version, std::uint64_t digest,
                    const std::string& payload) {
  const fs::path dir(disk.dir);
  const std::string name =
      artifact_file_name(kind, version, fingerprint_hex(digest));
  const fs::path path = dir / name;
  // The pid suffix keeps same-key writers from sharing a temp file (their
  // contents are identical, so last rename winning is fine).
  const fs::path tmp =
      dir /
      (name + ".tmp." + std::to_string(static_cast<long long>(::getpid())));
  std::string blob;
  BinaryWriter w(blob);
  const std::size_t start = w.mark();
  w.bytes(kArtifactMagic, sizeof kArtifactMagic);
  w.u16(kArtifactContainerVersion);
  w.str(kind);
  w.u32(static_cast<std::uint32_t>(version));
  w.u64(digest);
  w.u64(payload.size());
  w.checksum_from(start);
  const std::size_t payload_start = w.mark();
  w.bytes(payload.data(), payload.size());
  w.checksum_from(payload_start);
  fs::create_directories(dir);
  write_via_rename(tmp, path, blob);
  // The artifact is stored; the manifest entry and the sweep below are
  // upkeep of the directory, so their failures warn instead of throwing.
  record_manifest_use(dir, name, blob.size());
  // With caps configured, every store is followed by a sweep so the dir
  // can never drift past its bound between explicit GC runs.
  if (disk.max_bytes > 0 || disk.max_age_s > 0.0) {
    try {
      artifact_store_gc(disk.dir, disk.max_bytes, disk.max_age_s);
    } catch (const std::exception& e) {
      log_warn() << "artifact store: GC sweep after storing " << name
                 << " failed (" << e.what() << ")";
    }
  }
}

void touch_manifest(const std::string& dir, const std::string& file) {
  std::error_code ec;
  const auto size = fs::file_size(fs::path(dir) / file, ec);
  record_manifest_use(dir, file, ec ? 0 : static_cast<std::uint64_t>(size));
}

void flush_manifests() { ManifestCache::flush_all(); }

void debug_backdate_manifest(const std::string& dir, std::int64_t last_used) {
  ManifestCache::for_dir(fs::path(dir)).debug_backdate(last_used);
}

// --- GC ---------------------------------------------------------------------

namespace {

ArtifactGcResult ManifestCache::gc(std::uint64_t max_bytes, double max_age_s) {
  ArtifactGcResult result;
  std::error_code ec;
  if (!fs::is_directory(dir_, ec)) return result;

  std::lock_guard<std::mutex> lock(mutex_);
  ensure_loaded_locked();
  // The sweep runs under the directory lock with a freshly merged view:
  // deciding LRU order from a stale in-memory manifest could delete
  // artifacts another process just stored or touched.
  DirLock dir_lock(dir_);
  merge_manifest(mem_, read_manifest_disk(dir_));
  max_seq_ = std::max(max_seq_, max_seq(mem_));
  const std::int64_t now = now_unix();

  struct Candidate {
    std::string name;
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;
    std::int64_t last_used = 0;
  };
  std::vector<Candidate> candidates;
  for (const auto& dirent : fs::directory_iterator(dir_, ec)) {
    if (!dirent.is_regular_file()) continue;
    const std::string name = dirent.path().filename().string();
    if (name == kManifestBinName || name == kManifestLockName) continue;
    if (is_tmp_file(name)) {
      // A temp file is either a live writer mid-store or debris from a
      // crash; only the stale kind is removed.
      const auto mtime = fs::last_write_time(dirent.path(), ec);
      const double age_s =
          ec ? 0.0
             : std::chrono::duration<double>(
                   fs::file_time_type::clock::now() - mtime)
                   .count();
      if (age_s > kStaleTmpAgeS) {
        // Bookkeeping debris, not an artifact: reclaimed silently (it is
        // not part of `scanned`, so it must not inflate `removed` either).
        std::error_code rm;
        fs::remove(dirent.path(), rm);
      }
      continue;
    }
    if (is_lock_file(name)) {
      // A digest-lock sidecar is reclaimed only when nobody holds it (an
      // acquirable lock is an idle one).  A racer that just opened the
      // path re-verifies its inode after acquiring and retries on the
      // fresh file, so unlinking here is safe.
      const int fd =
          ::open(dirent.path().c_str(), O_RDWR | O_CLOEXEC);
      if (fd < 0) continue;
      if (::flock(fd, LOCK_EX | LOCK_NB) == 0) {
        // Like stale temp files, sidecars are debris outside the
        // scanned/removed artifact accounting.
        std::error_code rm;
        fs::remove(dirent.path(), rm);
        ::flock(fd, LOCK_UN);
      }
      ::close(fd);
      continue;
    }
    Candidate c;
    c.name = name;
    c.bytes = static_cast<std::uint64_t>(dirent.file_size(ec));
    if (ec) c.bytes = 0;
    const auto it = mem_.find(name);
    if (it != mem_.end()) {
      // Disk sizes win over manifest bookkeeping (the file is the truth).
      c.seq = it->second.seq;
      c.last_used = it->second.last_used;
    } else {
      // Unmanaged file (older format, foreign writer): oldest possible, so
      // the sweep reclaims it first.
      c.seq = 0;
      c.last_used = 0;
    }
    candidates.push_back(std::move(c));
    result.bytes_before += candidates.back().bytes;
  }
  result.scanned = candidates.size();
  if (candidates.empty()) {
    // Still drop manifest entries for files that no longer exist.
    if (!mem_.empty()) {
      mem_.clear();
      write_manifest_disk(dir_, mem_);
      dirty_ = 0;
    }
    return result;
  }

  // LRU order: lowest seq first; name breaks ties deterministically.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.seq != b.seq ? a.seq < b.seq : a.name < b.name;
            });

  std::uint64_t total = result.bytes_before;
  std::vector<bool> removed(candidates.size(), false);
  // The most-recently-used artifact is always kept: removing it would only
  // force an immediate rebuild of the hottest key without bounding anything
  // the next store wouldn't immediately unbound again.
  const std::size_t keep_last = candidates.size() - 1;
  for (std::size_t i = 0; i < keep_last; ++i) {
    const bool too_old =
        max_age_s > 0.0 &&
        static_cast<double>(now - candidates[i].last_used) > max_age_s;
    const bool over_budget = max_bytes > 0 && total > max_bytes;
    if (!too_old && !over_budget) {
      if (max_age_s <= 0.0) break;  // size-sorted prefix done, no age cap
      continue;  // age cap must still examine every remaining file
    }
    std::error_code rm;
    fs::remove(dir_ / candidates[i].name, rm);
    if (rm) continue;  // unremovable: leave its bytes counted
    removed[i] = true;
    total -= candidates[i].bytes;
    ++result.removed;
  }
  result.bytes_after = total;

  // The manifest becomes exactly the surviving files, in memory and on
  // disk (entries for files deleted here or by other processes drop out).
  Manifest survivors;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (removed[i]) continue;
    ManifestEntry entry;
    entry.seq = candidates[i].seq;
    entry.bytes = candidates[i].bytes;
    entry.last_used = candidates[i].last_used;
    survivors[candidates[i].name] = entry;
  }
  mem_ = std::move(survivors);
  write_manifest_disk(dir_, mem_);
  dirty_ = 0;
  return result;
}

}  // namespace

}  // namespace artifact_detail

ArtifactGcResult artifact_store_gc(const std::string& dir,
                                   std::uint64_t max_bytes,
                                   double max_age_s) {
  return artifact_detail::ManifestCache::for_dir(fs::path(dir))
      .gc(max_bytes, max_age_s);
}

}  // namespace seo
