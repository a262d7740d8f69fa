#include "state/snapshot.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "util/check.hpp"
#include "util/file.hpp"

namespace hprng::state {

namespace {

// Header: 8-byte magic + u32 format version + u32 section count.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4;
// Section header: u32 tag + u32 version + u64 payload length.
constexpr std::size_t kSectionHeaderBytes = 4 + 4 + 8;

void append_u32(std::string& buf, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf.append(b, 4);
}

void append_u64(std::string& buf, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf.append(b, 8);
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

void patch_u64(std::string& buf, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  // Slice-by-8: t[k][n] is the CRC register after byte n followed by k
  // zero bytes, so eight table lookups advance the CRC by eight input
  // bytes at once. Tables computed on first use; thread-safe under C++11
  // static init.
  static const auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> tab{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tab[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t n = 0; n < 256; ++n) {
        tab[k][n] = tab[0][tab[k - 1][n] & 0xFFu] ^ (tab[k - 1][n] >> 8);
      }
    }
    return tab;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_u32(p);
    const std::uint32_t hi = load_u32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string tag_name(std::uint32_t tag) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    out += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return out;
}

SnapshotWriter::SnapshotWriter() {
  buf_.append(kMagic, sizeof(kMagic));
  append_u32(buf_, kFormatVersion);
  append_u32(buf_, 0);  // section count, patched by finish()
}

void SnapshotWriter::begin_section(std::uint32_t tag, std::uint32_t version) {
  if (open_) end_section();
  section_start_ = buf_.size();
  append_u32(buf_, tag);
  append_u32(buf_, version);
  append_u64(buf_, 0);  // payload length, patched by end_section()
  open_ = true;
}

void SnapshotWriter::end_section() {
  HPRNG_CHECK(open_, "SnapshotWriter::end_section: no open section");
  const std::size_t payload_at = section_start_ + kSectionHeaderBytes;
  const std::size_t payload_len = buf_.size() - payload_at;
  patch_u64(buf_, section_start_ + 8, payload_len);
  // The CRC covers the section header too, so a flipped tag/version/length
  // byte is as detectable as a flipped payload byte.
  const std::string_view covered(buf_.data() + section_start_,
                                 kSectionHeaderBytes + payload_len);
  append_u32(buf_, crc32(covered));
  ++section_count_;
  open_ = false;
}

void SnapshotWriter::put_u32(std::uint32_t v) {
  HPRNG_CHECK(open_, "SnapshotWriter::put_u32: no open section");
  append_u32(buf_, v);
}

void SnapshotWriter::put_u64(std::uint64_t v) {
  HPRNG_CHECK(open_, "SnapshotWriter::put_u64: no open section");
  append_u64(buf_, v);
}

void SnapshotWriter::put_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void SnapshotWriter::put_str(std::string_view s) {
  put_u64(s.size());
  buf_.append(s.data(), s.size());
}

void SnapshotWriter::put_raw(std::string_view s) {
  HPRNG_CHECK(open_, "SnapshotWriter::put_raw: no open section");
  buf_.append(s.data(), s.size());
}

std::string SnapshotWriter::finish() {
  if (open_) end_section();
  std::string out = buf_;
  for (int i = 0; i < 4; ++i) {
    out[12 + static_cast<std::size_t>(i)] =
        static_cast<char>((section_count_ >> (8 * i)) & 0xFF);
  }
  return out;
}

bool SnapshotWriter::write_file(const std::string& path, std::string* error,
                                fault::Injector* injector, int target) {
  if (injector != nullptr) {
    const fault::Outcome o =
        injector->on_event(fault::Site::kCheckpointWrite, target);
    if (o.delay()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(o.delay_seconds));
    }
    if (o.fail()) {
      if (error != nullptr) {
        *error = "injected checkpoint_write fault for " + path;
      }
      return false;
    }
  }
  const std::string image = finish();
  const std::string tmp = path + ".tmp";
  if (!util::write_file(tmp, image)) {
    if (error != nullptr) *error = "cannot write " + tmp;
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot rename " + tmp + " -> " + path;
    return false;
  }
  return true;
}

std::optional<Snapshot> Snapshot::parse(std::string data, std::string* error) {
  const auto reject = [&](const std::string& why) -> std::optional<Snapshot> {
    if (error != nullptr) *error = "snapshot rejected: " + why;
    return std::nullopt;
  };
  if (data.size() < kHeaderBytes) return reject("shorter than the header");
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return reject("bad magic (not a HPRNGSNP file)");
  }
  const std::uint32_t version = load_u32(data.data() + 8);
  if (version != kFormatVersion) {
    return reject("format version " + std::to_string(version) +
                  " unsupported (this build reads version " +
                  std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t count = load_u32(data.data() + 12);

  Snapshot snap;
  snap.data_ = std::make_unique<std::string>(std::move(data));
  const std::string& d = *snap.data_;
  std::size_t pos = kHeaderBytes;
  for (std::uint32_t s = 0; s < count; ++s) {
    if (d.size() - pos < kSectionHeaderBytes) {
      return reject("truncated section header (section " + std::to_string(s) +
                    ")");
    }
    const std::size_t header_at = pos;
    Section sec;
    sec.tag = load_u32(d.data() + pos);
    sec.version = load_u32(d.data() + pos + 4);
    const std::uint64_t len = load_u64(d.data() + pos + 8);
    pos += kSectionHeaderBytes;
    if (len > d.size() - pos || d.size() - pos - len < 4) {
      return reject("truncated payload in section `" + tag_name(sec.tag) +
                    "`");
    }
    sec.payload = std::string_view(d.data() + pos, len);
    pos += len;
    const std::uint32_t want = load_u32(d.data() + pos);
    pos += 4;
    const std::string_view covered(d.data() + header_at,
                                   kSectionHeaderBytes + len);
    if (crc32(covered) != want) {
      return reject("CRC mismatch in section `" + tag_name(sec.tag) + "`");
    }
    snap.sections_.push_back(sec);
  }
  if (pos != d.size()) return reject("trailing bytes after the last section");
  return snap;
}

std::optional<Snapshot> Snapshot::read_file(const std::string& path,
                                            std::string* error,
                                            fault::Injector* injector,
                                            int target) {
  if (injector != nullptr) {
    const fault::Outcome o =
        injector->on_event(fault::Site::kRestoreRead, target);
    if (o.delay()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(o.delay_seconds));
    }
    if (o.fail()) {
      if (error != nullptr) {
        *error = "injected restore_read fault for " + path;
      }
      return std::nullopt;
    }
  }
  std::string data;
  if (!util::read_file(path, &data)) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  return parse(std::move(data), error);
}

const Section* Snapshot::find(std::uint32_t tag) const {
  for (const Section& s : sections_) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

std::vector<const Section*> Snapshot::find_all(std::uint32_t tag) const {
  std::vector<const Section*> out;
  for (const Section& s : sections_) {
    if (s.tag == tag) out.push_back(&s);
  }
  return out;
}

bool SectionReader::take(std::size_t n, const char** out) {
  if (!ok_) return false;
  if (data_.size() - pos_ < n) {
    fail("read past end of section");
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

void SectionReader::fail(const std::string& why) {
  if (!ok_) return;  // keep the first diagnostic
  ok_ = false;
  error_ = "section `" + tag_name(tag_) + "`: " + why;
}

std::uint32_t SectionReader::get_u32() {
  const char* p = nullptr;
  return take(4, &p) ? load_u32(p) : 0;
}

std::uint64_t SectionReader::get_u64() {
  const char* p = nullptr;
  return take(8, &p) ? load_u64(p) : 0;
}

double SectionReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SectionReader::get_str() {
  const std::uint64_t len = get_u64();
  if (!ok_) return {};
  if (len > data_.size() - pos_) {
    fail("string length overruns the section");
    return {};
  }
  const char* p = nullptr;
  take(static_cast<std::size_t>(len), &p);
  return std::string(p, static_cast<std::size_t>(len));
}

}  // namespace hprng::state
