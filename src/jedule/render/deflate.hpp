#pragma once

// From-scratch DEFLATE (RFC 1951) encoder with zlib (RFC 1950) and gzip
// (RFC 1952) framing, used by the PNG, PDF (/FlateDecode) and SVGZ
// exporters and by the serve layer's Content-Encoding negotiation. The
// input is cut into fixed 256 KiB chunks; each chunk is tokenized once
// with lazy hash-chain LZ77 matching (matches confined to the chunk) and
// emitted as one block — dynamic Huffman with canonical codes built from
// the chunk's own symbol statistics, or the RFC fixed code when the
// dynamic header would not pay — and the blocks are stitched bit-exactly
// into a single stream. Because the chunk grid never moves and every
// per-chunk decision is a pure function of the chunk bytes, compressing
// serially or on any number of worker threads yields byte-identical
// output. util/inflate.hpp provides the matching decoder so the codec is
// verified end-to-end in-tree.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "jedule/util/checksum.hpp"

namespace jedule::render {

// The checksum primitives (Adler-32 / CRC-32 plus their combine and
// parallel variants) moved to jedule/util/checksum.hpp so the io layer can
// verify gzip trailers; forwarded here for existing render-side callers.
using util::adler32;
using util::adler32_combine;
using util::crc32;
using util::crc32_combine;
using util::crc32_parallel;

/// Raw DEFLATE stream: one block per 256 KiB input chunk, compressed over
/// up to `threads` workers. The output does not depend on `threads` —
/// chunk boundaries are fixed and blocks are merged in order.
std::vector<std::uint8_t> deflate_compress(const std::uint8_t* data,
                                           std::size_t size, int threads = 1);

/// Raw DEFLATE stream of stored (uncompressed) blocks; exercises the
/// stored-block path of the decoder.
std::vector<std::uint8_t> deflate_store(const std::uint8_t* data,
                                        std::size_t size);

/// zlib stream: 2-byte header + deflate data + Adler-32. The Adler-32 is
/// computed per chunk on the workers and combined at stitch time.
std::vector<std::uint8_t> zlib_compress(const std::uint8_t* data,
                                        std::size_t size, int threads = 1);

/// gzip (RFC 1952) member with a deterministic 10-byte header (MTIME=0,
/// OS=255) and CRC-32 + ISIZE trailer. Used for `.svgz` export and the
/// serve layer's negotiated gzip response bodies; io::load_schedule and
/// util::gzip_decompress read it back.
std::vector<std::uint8_t> gzip_compress(const std::uint8_t* data,
                                        std::size_t size, int threads = 1);

}  // namespace jedule::render
