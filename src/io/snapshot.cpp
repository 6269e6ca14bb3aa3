#include "io/snapshot.h"

#include <array>
#include <cstdio> // std::rename, std::remove
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "containers/aligned_allocator.h"
#include "instrument/memory_tracker.h"

namespace qmcxx::io
{

namespace
{

constexpr char kMagic[8] = {'q', 'm', 'c', 'x', 's', 'n', 'p', '1'};
constexpr std::size_t kHeaderBytes = 40;

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320:
/// kCrcTables[0] is the classic byte table, and kCrcTables[s][b] is the
/// CRC of byte b followed by s zero bytes, so eight lookups advance the
/// register over eight bytes at once.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i)
  {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
  return t;
}();

/// Little-endian 32-bit load, byte by byte: the same on any host.
std::uint32_t load_le32(const unsigned char* p)
{
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
      static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// Payload sinks: serialize_payload emits the byte order once, and each
/// sink consumes it. ByteCounter sizes a payload, CrcSink checksums it,
/// StreamSink writes it; none stages a copy.
struct ByteCounter
{
  std::uint64_t bytes = 0;
  void put_bytes(const char*, std::size_t n) { bytes += n; }
};

struct CrcSink
{
  std::uint32_t crc = 0;
  void put_bytes(const char* p, std::size_t n) { crc = crc32(p, n, crc); }
};

struct StreamSink
{
  std::ostream& out;
  void put_bytes(const char* p, std::size_t n) { out.write(p, static_cast<std::streamsize>(n)); }
};

/// Bounds-checked packed byte reader; any overrun means the payload was
/// truncated relative to its own structure.
class ByteSource
{
public:
  ByteSource(const char* p, std::size_t n) : p_(p), n_(n) {}

  template<typename T>
  T get()
  {
    static_assert(std::is_trivially_copyable_v<T>, "snapshots stream raw bytes");
    T v;
    get_bytes(reinterpret_cast<char*>(&v), sizeof(T));
    return v;
  }

  void get_bytes(char* dst, std::size_t n)
  {
    if (cur_ + n > n_)
      throw std::runtime_error("qmcxx-snap: truncated snapshot payload (structure overruns "
                               "declared size)");
    std::memcpy(dst, p_ + cur_, n);
    cur_ += n;
  }

  std::size_t remaining() const { return n_ - cur_; }

private:
  const char* p_;
  std::size_t n_;
  std::size_t cur_ = 0;
};

/// The qmcxx-snap-v1 payload byte order, for every sink.
template<typename Sink>
void serialize_payload(const PopulationSnapshot& snap, Sink& sink)
{
  const auto put = [&sink](const auto& v) {
    static_assert(std::is_trivially_copyable_v<std::decay_t<decltype(v)>>,
                  "snapshots stream raw bytes");
    sink.put_bytes(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(snap.master_seed);
  put(snap.tau);
  put(static_cast<std::uint32_t>(snap.kind));
  put(std::uint32_t{1}); // buffers stored
  put(snap.generation);
  put(snap.trial_energy);
  put(snap.branch_rng);
  put(snap.num_particles);
  put(static_cast<std::uint64_t>(snap.walkers.size()));
  for (const WalkerSnapshot& w : snap.walkers)
  {
    if (w.R.size() != snap.num_particles)
      throw std::logic_error("qmcxx-snap: walker position count does not match "
                             "PopulationSnapshot::num_particles");
    put(w.id);
    put(w.parent_id);
    put(w.weight);
    put(w.multiplicity);
    put(w.local_energy);
    put(w.old_local_energy);
    put(w.log_psi);
    put(w.age);
    put(w.rng);
    sink.put_bytes(reinterpret_cast<const char*>(w.R.data()), w.R.size() * sizeof(Walker::Pos));
    put(static_cast<std::uint64_t>(w.buffer.size()));
    sink.put_bytes(w.buffer.data(), w.buffer.size());
  }
}

PopulationSnapshot parse_payload(std::uint32_t precision_bytes, std::uint64_t fingerprint,
                                 const char* data, std::size_t n)
{
  ByteSource src(data, n);
  PopulationSnapshot snap;
  snap.precision_bytes = precision_bytes;
  snap.workload_fingerprint = fingerprint;
  snap.master_seed = src.get<std::uint64_t>();
  snap.tau = src.get<double>();
  const auto kind = src.get<std::uint32_t>();
  if (kind > 1)
    throw std::runtime_error("qmcxx-snap: invalid chain kind tag " + std::to_string(kind));
  snap.kind = static_cast<ChainKind>(kind);
  const auto buffers_stored = src.get<std::uint32_t>();
  if (buffers_stored != 1)
    throw std::runtime_error("qmcxx-snap: buffers-stored flag is " +
                             std::to_string(buffers_stored) +
                             ", expected 1: a snapshot without walker buffers cannot be resumed");
  snap.generation = src.get<std::uint64_t>();
  snap.trial_energy = src.get<double>();
  snap.branch_rng = src.get<RandomGenerator::State>();
  snap.num_particles = src.get<std::uint64_t>();
  const auto num_walkers = src.get<std::uint64_t>();
  // Sanity bound before any resize: a corrupt-but-CRC-colliding count
  // must not drive a huge allocation. Every walker needs at least its
  // fixed-size record in the remaining bytes.
  constexpr std::size_t kFixedWalkerBytes =
      2 * sizeof(std::uint64_t) + 5 * sizeof(double) + sizeof(std::int64_t) +
      sizeof(RandomGenerator::State);
  const std::size_t min_walker_bytes =
      kFixedWalkerBytes + snap.num_particles * sizeof(Walker::Pos);
  if (num_walkers > 0 && src.remaining() / num_walkers < min_walker_bytes)
    throw std::runtime_error("qmcxx-snap: truncated snapshot payload (walker count exceeds "
                             "remaining bytes)");
  snap.walkers.reserve(num_walkers);
  for (std::uint64_t iw = 0; iw < num_walkers; ++iw)
  {
    WalkerSnapshot w;
    w.id = src.get<std::uint64_t>();
    w.parent_id = src.get<std::uint64_t>();
    w.weight = src.get<double>();
    w.multiplicity = src.get<double>();
    w.local_energy = src.get<double>();
    w.old_local_energy = src.get<double>();
    w.log_psi = src.get<double>();
    w.age = src.get<std::int64_t>();
    w.rng = src.get<RandomGenerator::State>();
    w.R.resize(snap.num_particles);
    src.get_bytes(reinterpret_cast<char*>(w.R.data()),
                  w.R.size() * sizeof(Walker::Pos));
    const auto nbytes = src.get<std::uint64_t>();
    if (nbytes > src.remaining())
      throw std::runtime_error("qmcxx-snap: truncated snapshot payload (buffer overruns "
                               "declared size)");
    w.buffer.resize(nbytes);
    src.get_bytes(w.buffer.data(), nbytes);
    snap.walkers.push_back(std::move(w));
  }
  if (src.remaining() != 0)
    throw std::runtime_error("qmcxx-snap: snapshot payload has " +
                             std::to_string(src.remaining()) + " trailing bytes");
  return snap;
}

} // namespace

std::uint32_t crc32(const char* data, std::size_t n, std::uint32_t crc)
{
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  const auto& t = kCrcTables;
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8)
  {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p)
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

std::uint64_t workload_fingerprint(std::string_view workload, std::string_view variant,
                                   int delay_rank, std::uint64_t spec_hash)
{
  // FNV-1a (64-bit) with a 0xff separator between fields so
  // ("ab","c") and ("a","bc") hash differently.
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
    {
      h ^= static_cast<unsigned char>(p[i]);
      h *= 0x100000001b3ull;
    }
    h ^= 0xffu;
    h *= 0x100000001b3ull;
  };
  mix(workload.data(), workload.size());
  mix(variant.data(), variant.size());
  const auto d = static_cast<std::int64_t>(delay_rank);
  mix(reinterpret_cast<const char*>(&d), sizeof(d));
  // Mixed only when nonzero: runs that predate spec ingestion (and
  // driver-level tests that stamp by name alone) keep their hashes.
  if (spec_hash != 0)
    mix(reinterpret_cast<const char*>(&spec_hash), sizeof(spec_hash));
  return h;
}

void validate_compatible(const PopulationSnapshot& snap, const SnapshotExpectation& expect)
{
  const auto precision_name = [](std::uint32_t b) {
    return b == 4 ? "single" : b == 8 ? "double" : "unknown";
  };
  if (snap.precision_bytes != expect.precision_bytes)
    throw std::runtime_error(
        std::string("qmcxx-snap: precision tag mismatch: snapshot was written by a ") +
        precision_name(snap.precision_bytes) + " (" + std::to_string(snap.precision_bytes) +
        "-byte) engine, this engine computes in " + precision_name(expect.precision_bytes) +
        " (" + std::to_string(expect.precision_bytes) +
        "-byte); rerun with the matching \"precision\" policy (or variant alias)");
  if (expect.fingerprint != 0 && snap.workload_fingerprint != 0 &&
      snap.workload_fingerprint != expect.fingerprint)
    throw std::runtime_error("qmcxx-snap: workload fingerprint mismatch (snapshot " +
                             std::to_string(snap.workload_fingerprint) + ", this run " +
                             std::to_string(expect.fingerprint) +
                             "): the snapshot was taken from a different workload, engine "
                             "variant, delay_rank, or spec contents");
  if (snap.master_seed != expect.master_seed)
    throw std::runtime_error("qmcxx-snap: master seed mismatch (snapshot " +
                             std::to_string(snap.master_seed) + ", this run " +
                             std::to_string(expect.master_seed) +
                             "): exact resume requires the original seed");
  if (snap.tau != expect.tau)
    throw std::runtime_error("qmcxx-snap: time step mismatch (snapshot tau " +
                             std::to_string(snap.tau) + ", this run " +
                             std::to_string(expect.tau) +
                             "): exact resume requires the original tau");
  if (snap.num_particles != expect.num_particles)
    throw std::runtime_error("qmcxx-snap: particle count mismatch (snapshot " +
                             std::to_string(snap.num_particles) + ", this system " +
                             std::to_string(expect.num_particles) + ")");
  if (snap.walkers.empty())
    throw std::runtime_error("qmcxx-snap: snapshot holds an empty population");
}

std::size_t snapshot_payload_bytes(const PopulationSnapshot& snap)
{
  ByteCounter counter;
  serialize_payload(snap, counter);
  return counter.bytes;
}

std::size_t write_snapshot_file(const std::string& path, const PopulationSnapshot& snap)
{
  // Passes over the population instead of a staged copy: the header
  // needs the payload's size and CRC before the payload itself.
  const std::uint64_t payload_bytes = snapshot_payload_bytes(snap);
  CrcSink checksum;
  serialize_payload(snap, checksum);
  const std::uint32_t crc = checksum.crc;

  char header[kHeaderBytes];
  std::size_t off = 0;
  const auto put = [&](const void* p, std::size_t n) {
    std::memcpy(header + off, p, n);
    off += n;
  };
  const std::uint32_t version = SNAPSHOT_VERSION;
  const std::uint32_t reserved = 0;
  put(kMagic, sizeof(kMagic));
  put(&version, sizeof(version));
  put(&snap.precision_bytes, sizeof(snap.precision_bytes));
  put(&snap.workload_fingerprint, sizeof(snap.workload_fingerprint));
  put(&payload_bytes, sizeof(payload_bytes));
  put(&crc, sizeof(crc));
  put(&reserved, sizeof(reserved));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("qmcxx-snap: cannot open '" + tmp + "' for writing");
    out.write(header, static_cast<std::streamsize>(kHeaderBytes));
    StreamSink file{out};
    serialize_payload(snap, file);
    out.flush();
    if (!out)
    {
      out.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("qmcxx-snap: write to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
  {
    std::remove(tmp.c_str());
    throw std::runtime_error("qmcxx-snap: cannot rename '" + tmp + "' to '" + path + "'");
  }
  return kHeaderBytes + payload_bytes;
}

PopulationSnapshot read_snapshot_file(const std::string& path)
{
  MemoryScope scope("snapshot-read");
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("qmcxx-snap: cannot open '" + path + "' for reading");

  char header[kHeaderBytes];
  in.read(header, static_cast<std::streamsize>(kHeaderBytes));
  if (in.gcount() != static_cast<std::streamsize>(kHeaderBytes))
    throw std::runtime_error("qmcxx-snap: truncated snapshot '" + path +
                             "' (file shorter than the 40-byte header)");
  std::size_t off = 0;
  const auto get = [&](void* p, std::size_t n) {
    std::memcpy(p, header + off, n);
    off += n;
  };
  char magic[8];
  std::uint32_t version = 0, precision = 0, crc_stored = 0, reserved = 0;
  std::uint64_t fingerprint = 0, payload_bytes = 0;
  get(magic, sizeof(magic));
  get(&version, sizeof(version));
  get(&precision, sizeof(precision));
  get(&fingerprint, sizeof(fingerprint));
  get(&payload_bytes, sizeof(payload_bytes));
  get(&crc_stored, sizeof(crc_stored));
  get(&reserved, sizeof(reserved));

  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("qmcxx-snap: '" + path +
                             "' is not a qmcxx-snap file (bad magic)");
  if (version != SNAPSHOT_VERSION)
    throw std::runtime_error("qmcxx-snap: unsupported snapshot version " +
                             std::to_string(version) + " in '" + path + "' (this build reads "
                             "version " + std::to_string(SNAPSHOT_VERSION) + ")");

  const auto truncated = [&](std::uint64_t held) {
    return std::runtime_error("qmcxx-snap: truncated snapshot '" + path + "' (header declares " +
                              std::to_string(payload_bytes) + " payload bytes, file holds " +
                              std::to_string(held) + ")");
  };
  // The declared size is checked against the file before it is
  // allocated: a corrupt header must not drive a huge allocation.
  const std::streamoff payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(payload_start);
  if (!in || payload_start < 0 || file_end < payload_start)
    throw std::runtime_error("qmcxx-snap: cannot seek in '" + path + "'");
  const auto held = static_cast<std::uint64_t>(file_end - payload_start);
  if (payload_bytes > held)
    throw truncated(held);

  aligned_vector<char> payload(payload_bytes);
  in.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
  if (in.gcount() != static_cast<std::streamsize>(payload_bytes))
    throw truncated(static_cast<std::uint64_t>(in.gcount()));

  const std::uint32_t crc_computed = crc32(payload.data(), payload.size());
  if (crc_computed != crc_stored)
    throw std::runtime_error("qmcxx-snap: payload CRC mismatch in '" + path + "' (stored " +
                             std::to_string(crc_stored) + ", computed " +
                             std::to_string(crc_computed) + "): snapshot is corrupt");

  return parse_payload(precision, fingerprint, payload.data(), payload.size());
}

} // namespace qmcxx::io
