// Seed-corpus generator: writes well-formed encodings (via the real
// encoders) plus a few deliberately truncated / bit-flipped variants into
// fuzz/corpus/<harness>/. Run after a format change and commit the output:
//   ./build/fuzz/fuzz_make_seeds fuzz/corpus
// Well-formed seeds put the fuzzer deep inside the parsers from the first
// mutation; the broken variants pin the reject paths into the corpus too.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "reldev/net/message.hpp"
#include "reldev/storage/site_metadata.hpp"
#include "reldev/storage/wal_journal.hpp"
#include "reldev/util/serial.hpp"

namespace fs = std::filesystem;
using namespace reldev;
using namespace reldev::net;
using namespace reldev::storage;

namespace {

void write_seed(const fs::path& dir, const std::string& name,
                std::span<const std::byte> bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_seeds: cannot write %s\n",
                 (dir / name).c_str());
    std::exit(1);
  }
}

// A truncated and a bit-flipped copy of a well-formed seed exercise the
// reject paths from day one.
void write_with_variants(const fs::path& dir, const std::string& name,
                         std::vector<std::byte> bytes) {
  write_seed(dir, name, bytes);
  if (bytes.size() > 3) {
    write_seed(dir, name + "-truncated",
               std::span(bytes).first(bytes.size() / 2));
    std::vector<std::byte> flipped = bytes;
    flipped[flipped.size() / 3] ^= std::byte{0x5a};
    write_seed(dir, name + "-flipped", flipped);
  }
}

BlockData pattern_block(std::size_t size, std::uint8_t salt) {
  BlockData data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((i * 7 + salt) & 0xff);
  }
  return data;
}

void seed_message_decode(const fs::path& dir) {
  const BlockData block = pattern_block(64, 1);
  const SiteSet sites{0, 2, 5};
  std::size_t n = 0;
  auto emit = [&](const char* name, Payload payload) {
    Message msg{.from = static_cast<SiteId>(n++), .payload = std::move(payload)};
    write_with_variants(dir, name, msg.encode());
  };
  emit("state-info", StateInfo{.state = SiteState::kComatose,
                               .version_total = 12345,
                               .was_available = sites});
  emit("client-write-request", ClientWriteRequest{.block = 8, .data = block});
  emit("device-info-reply",
       DeviceInfoReply{.block_count = 128, .block_size = 64});
  emit("error-reply",
       ErrorReply{.error_code = 2, .message = "no quorum for block 8"});
  emit("range-vote-reply",
       RangeVoteReply{.weight_millivotes = 1000, .versions = {1, 2, 3, 4}});
  emit("batch-write-request",
       BatchWriteRequest{
           .updates = {BlockUpdate{.block = 0, .version = 5, .data = block},
                       BlockUpdate{.block = 1,
                                   .version = 6,
                                   .data = pattern_block(64, 2)}},
           .was_available = sites});
  emit("digest-reply", DigestReply{.first = 16,
                                   .versions = {7, 0, 9},
                                   .digests = {0xdeadbeef, 0, 0x1234}});
}

void seed_site_metadata(const fs::path& dir) {
  SiteMetadata naive{
      .site = 3, .clean_shutdown = true, .was_available = {}, .scrub_cursor = {}};
  write_with_variants(dir, "naive-clean", naive.encode());

  SiteMetadata crashed{.site = 1, .clean_shutdown = false,
                       .was_available = SiteSet{0, 1, 4}, .scrub_cursor = {}};
  write_with_variants(dir, "ac-crashed", crashed.encode());

  SiteMetadata scrubbed{.site = 0, .clean_shutdown = true,
                        .was_available = SiteSet{0},
                        .scrub_cursor = 4096};
  write_with_variants(dir, "ac-scrub-cursor", scrubbed.encode());
}

void seed_wal_replay(const fs::path& dir) {
  // The harness spends input byte 0 selecting the geometry: 0 -> 64-byte
  // blocks, which is what these frames are encoded for.
  constexpr std::size_t kBlockSize = 64;
  const std::byte geometry{0};
  const BlockData block = pattern_block(kBlockSize, 3);

  auto with_geometry = [&](std::span<const std::byte> frames) {
    std::vector<std::byte> out;
    out.reserve(frames.size() + 1);
    out.push_back(geometry);
    out.insert(out.end(), frames.begin(), frames.end());
    return out;
  };

  BufferWriter batch;
  wal_encode_block_write(batch, 1, 5, 2, block);
  wal_encode_metadata_put(
      batch, 2,
      SiteMetadata{
          .site = 5, .clean_shutdown = false, .was_available = {}, .scrub_cursor = {}}
          .encode());
  wal_encode_demote(batch, 3, 5);
  const std::vector<std::byte> frames(batch.bytes().begin(),
                                      batch.bytes().end());
  write_with_variants(dir, "three-records", with_geometry(frames));

  // Clean end of log: valid frames followed by zeroed preallocation.
  std::vector<std::byte> padded = frames;
  padded.resize(padded.size() + 96, std::byte{0});
  write_seed(dir, "zero-padded", with_geometry(padded));

  // Torn tail: a crash mid-append left half of the last frame.
  BufferWriter torn_batch;
  wal_encode_block_write(torn_batch, 1, 0, 1, block);
  wal_encode_block_write(torn_batch, 2, 1, 1, block);
  auto torn_span = torn_batch.bytes();
  write_seed(dir, "torn-tail",
             with_geometry(torn_span.first(torn_span.size() - 40)));

  write_seed(dir, "empty", with_geometry({}));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  struct {
    const char* name;
    void (*fill)(const fs::path&);
  } harnesses[] = {{"message_decode", seed_message_decode},
                   {"site_metadata", seed_site_metadata},
                   {"wal_replay", seed_wal_replay}};
  for (const auto& harness : harnesses) {
    const fs::path dir = root / harness.name;
    fs::create_directories(dir);
    harness.fill(dir);
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) ++count;
    }
    std::printf("make_seeds: %s -> %zu files\n", dir.c_str(), count);
  }
  return 0;
}
