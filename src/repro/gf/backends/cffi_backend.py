"""Compiled C kernel backend (cffi, lazily built, SIMD-tiered).

The C module is compiled once per machine on first use and cached under
``~/.cache/repro-gf`` (override with ``REPRO_GF_CACHE_DIR``), so every
later process -- including sweep pool workers -- just dlopens the
shared object.  The source selects its inner loop at *compile* time from
what ``-march=native`` exposes:

- tier 3: GFNI + AVX-512 -- ``GF2P8AFFINEQB`` multiplies 64 bytes by a
  constant per instruction.  The affine qword for coefficient ``c`` is
  the bit-matrix of multiplication by ``c``
  (:func:`repro.gf.bitmatrix.element_to_bitmatrix`) packed byte ``b`` =
  row ``7 - b``, bit ``j`` = ``M[7-b][j]`` -- which is how the GFNI
  affine transform expects a GF(2) matrix, and works for *any* field
  modulus, not just the AES polynomial;
- tier 2: GFNI + AVX2 -- same instruction at 32 bytes per step;
- tier 1: AVX2 ``PSHUFB`` -- classic split-table multiply: two 16-entry
  nibble tables per coefficient, two shuffles and a XOR per 32 bytes;
- tier 0: scalar product-table loop (any compiler, no SIMD flags).

All tiers share a scalar tail so any length is handled exactly.  The
tables are built on the Python side from the field's own product table /
bit matrices and passed by pointer per call, so one compiled module
serves every :class:`~repro.gf.field.GF256` instance.

cffi releases the GIL around API-mode calls.  Nothing in the package
relies on that: the streaming file pipeline
(:func:`repro.striping.pipeline.encode_stream`) reads, runs kernels and
writes inline on the calling thread.

Construction raises :class:`~repro.errors.BackendUnavailable` when cffi
is missing or no working C compiler exists; the registry then falls
through to the next tier.  A host whose compiler lacks
``-march=native`` support is retried with plain ``-O3`` (tier 0).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import BackendUnavailable
from repro.gf.backends.base import KernelBackend

#: Environment variable overriding the compiled-module cache directory.
CACHE_DIR_ENV = "REPRO_GF_CACHE_DIR"

_CDEF = """
int gf_kernel_tier(void);
void gf_matmul(const uint64_t* affine, const uint8_t* nib,
               const uint8_t* prod, const uint8_t* coeffs,
               size_t m, size_t n,
               const uint8_t* const* rows_in, uint8_t* const* rows_out,
               size_t length, int accumulate);
void gf_matmul_batch(const uint64_t* affine, const uint8_t* nib,
                     const uint8_t* prod, const uint8_t* coeffs,
                     size_t m, size_t n, size_t batch,
                     const uint8_t* const* rows_in, uint8_t* const* rows_out,
                     size_t length, int accumulate);
void gf_xor_rows(const uint8_t* const* sources, size_t count,
                 uint8_t* dst, size_t length, int accumulate);
uint32_t crc32c_one(const uint8_t* data, size_t length, uint32_t value);
void crc32c_rows(const uint8_t* const* rows, const uint64_t* lengths,
                 size_t count, uint32_t* out);
"""

_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

#if defined(__GFNI__) && defined(__AVX512F__)
#include <immintrin.h>
#define GF_TIER 3
#elif defined(__GFNI__) && defined(__AVX2__)
#include <immintrin.h>
#define GF_TIER 2
#elif defined(__AVX2__)
#include <immintrin.h>
#define GF_TIER 1
#else
#define GF_TIER 0
#endif

int gf_kernel_tier(void) { return GF_TIER; }

/* Scalar product-table kernel: correctness baseline and vector tail. */
static void gf_matmul_scalar(const uint8_t* prod, const uint8_t* coeffs,
                             size_t m, size_t n,
                             const uint8_t* const* rows_in,
                             uint8_t* const* rows_out,
                             size_t start, size_t length, int accumulate) {
    size_t i, j, p;
    for (i = 0; i < m; i++) {
        uint8_t* out = rows_out[i];
        const uint8_t* crow = coeffs + i * n;
        if (!accumulate) memset(out + start, 0, length - start);
        for (j = 0; j < n; j++) {
            uint8_t c = crow[j];
            const uint8_t* src;
            if (!c) continue;
            src = rows_in[j];
            if (c == 1) {
                for (p = start; p < length; p++) out[p] ^= src[p];
            } else {
                const uint8_t* row = prod + (size_t)c * 256;
                for (p = start; p < length; p++) out[p] ^= row[src[p]];
            }
        }
    }
}

#if GF_TIER == 3
/* Single-output-row kernel, unrolled four 64-byte blocks deep.  A
 * repair matmul (m == 1) is one serial XOR/affine chain per block --
 * the dependency chain, not the load ports, is the bottleneck -- so
 * four independent accumulators recover the instruction-level
 * parallelism that the m > 1 encode shape gets for free from its
 * independent output rows. */
static size_t gf_row_avx512_u4(const uint64_t* affine,
                               const uint8_t* coeffs, size_t n,
                               const uint8_t* const* rows_in,
                               uint8_t* out, size_t length,
                               int accumulate) {
    size_t pos = 0, j;
    for (; pos + 256 <= length; pos += 256) {
        __m512i a0, a1, a2, a3;
        if (accumulate) {
            a0 = _mm512_loadu_si512((const void*)(out + pos));
            a1 = _mm512_loadu_si512((const void*)(out + pos + 64));
            a2 = _mm512_loadu_si512((const void*)(out + pos + 128));
            a3 = _mm512_loadu_si512((const void*)(out + pos + 192));
        } else {
            a0 = _mm512_setzero_si512();
            a1 = a0; a2 = a0; a3 = a0;
        }
        for (j = 0; j < n; j++) {
            uint8_t c = coeffs[j];
            const uint8_t* src;
            if (!c) continue;
            src = rows_in[j] + pos;
            if (c == 1) {
                a0 = _mm512_xor_si512(a0, _mm512_loadu_si512((const void*)src));
                a1 = _mm512_xor_si512(a1, _mm512_loadu_si512((const void*)(src + 64)));
                a2 = _mm512_xor_si512(a2, _mm512_loadu_si512((const void*)(src + 128)));
                a3 = _mm512_xor_si512(a3, _mm512_loadu_si512((const void*)(src + 192)));
            } else {
                __m512i q = _mm512_set1_epi64((long long)affine[c]);
                a0 = _mm512_xor_si512(a0, _mm512_gf2p8affine_epi64_epi8(
                    _mm512_loadu_si512((const void*)src), q, 0));
                a1 = _mm512_xor_si512(a1, _mm512_gf2p8affine_epi64_epi8(
                    _mm512_loadu_si512((const void*)(src + 64)), q, 0));
                a2 = _mm512_xor_si512(a2, _mm512_gf2p8affine_epi64_epi8(
                    _mm512_loadu_si512((const void*)(src + 128)), q, 0));
                a3 = _mm512_xor_si512(a3, _mm512_gf2p8affine_epi64_epi8(
                    _mm512_loadu_si512((const void*)(src + 192)), q, 0));
            }
        }
        _mm512_storeu_si512((void*)(out + pos), a0);
        _mm512_storeu_si512((void*)(out + pos + 64), a1);
        _mm512_storeu_si512((void*)(out + pos + 128), a2);
        _mm512_storeu_si512((void*)(out + pos + 192), a3);
    }
    return pos;
}
#endif

static void gf_matmul_one(const uint64_t* affine, const uint8_t* nib,
                          const uint8_t* prod, const uint8_t* coeffs,
                          size_t m, size_t n,
                          const uint8_t* const* rows_in,
                          uint8_t* const* rows_out,
                          size_t length, int accumulate) {
    size_t pos = 0;
#if GF_TIER == 3
    if (m == 1) {
        pos = gf_row_avx512_u4(affine, coeffs, n, rows_in, rows_out[0],
                               length, accumulate);
    }
    for (; pos + 64 <= length; pos += 64) {
        size_t i, j;
        for (i = 0; i < m; i++) {
            __m512i acc = accumulate
                ? _mm512_loadu_si512((const void*)(rows_out[i] + pos))
                : _mm512_setzero_si512();
            const uint8_t* crow = coeffs + i * n;
            for (j = 0; j < n; j++) {
                uint8_t c = crow[j];
                __m512i d;
                if (!c) continue;
                d = _mm512_loadu_si512((const void*)(rows_in[j] + pos));
                if (c == 1) {
                    acc = _mm512_xor_si512(acc, d);
                } else {
                    acc = _mm512_xor_si512(
                        acc,
                        _mm512_gf2p8affine_epi64_epi8(
                            d, _mm512_set1_epi64((long long)affine[c]), 0));
                }
            }
            _mm512_storeu_si512((void*)(rows_out[i] + pos), acc);
        }
    }
#elif GF_TIER == 2
    for (; pos + 32 <= length; pos += 32) {
        size_t i, j;
        for (i = 0; i < m; i++) {
            __m256i acc = accumulate
                ? _mm256_loadu_si256((const __m256i*)(rows_out[i] + pos))
                : _mm256_setzero_si256();
            const uint8_t* crow = coeffs + i * n;
            for (j = 0; j < n; j++) {
                uint8_t c = crow[j];
                __m256i d;
                if (!c) continue;
                d = _mm256_loadu_si256((const __m256i*)(rows_in[j] + pos));
                if (c == 1) {
                    acc = _mm256_xor_si256(acc, d);
                } else {
                    acc = _mm256_xor_si256(
                        acc,
                        _mm256_gf2p8affine_epi64_epi8(
                            d, _mm256_set1_epi64x((long long)affine[c]), 0));
                }
            }
            _mm256_storeu_si256((__m256i*)(rows_out[i] + pos), acc);
        }
    }
#elif GF_TIER == 1
    {
        const __m256i maskf = _mm256_set1_epi8(0x0f);
        for (; pos + 32 <= length; pos += 32) {
            size_t i, j;
            for (i = 0; i < m; i++) {
                __m256i acc = accumulate
                    ? _mm256_loadu_si256((const __m256i*)(rows_out[i] + pos))
                    : _mm256_setzero_si256();
                const uint8_t* crow = coeffs + i * n;
                for (j = 0; j < n; j++) {
                    uint8_t c = crow[j];
                    __m256i d, tlo, thi, lo, hi;
                    const uint8_t* t;
                    if (!c) continue;
                    d = _mm256_loadu_si256((const __m256i*)(rows_in[j] + pos));
                    if (c == 1) { acc = _mm256_xor_si256(acc, d); continue; }
                    t = nib + (size_t)c * 32;
                    tlo = _mm256_broadcastsi128_si256(
                        _mm_loadu_si128((const __m128i*)t));
                    thi = _mm256_broadcastsi128_si256(
                        _mm_loadu_si128((const __m128i*)(t + 16)));
                    lo = _mm256_and_si256(d, maskf);
                    hi = _mm256_and_si256(_mm256_srli_epi16(d, 4), maskf);
                    acc = _mm256_xor_si256(
                        acc,
                        _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo),
                                         _mm256_shuffle_epi8(thi, hi)));
                }
                _mm256_storeu_si256((__m256i*)(rows_out[i] + pos), acc);
            }
        }
    }
#endif
    if (pos < length) {
        gf_matmul_scalar(prod, coeffs, m, n, rows_in, rows_out,
                         pos, length, accumulate);
    }
    (void)affine; (void)nib;
}

void gf_matmul(const uint64_t* affine, const uint8_t* nib,
               const uint8_t* prod, const uint8_t* coeffs,
               size_t m, size_t n,
               const uint8_t* const* rows_in, uint8_t* const* rows_out,
               size_t length, int accumulate) {
    gf_matmul_one(affine, nib, prod, coeffs, m, n, rows_in, rows_out,
                  length, accumulate);
}

/* One FFI crossing per survivor wave: apply the same (m, n) matrix to
 * `batch` row sets laid out back-to-back in the pointer arrays
 * (element b's inputs at rows_in + b*n, outputs at rows_out + b*m). */
void gf_matmul_batch(const uint64_t* affine, const uint8_t* nib,
                     const uint8_t* prod, const uint8_t* coeffs,
                     size_t m, size_t n, size_t batch,
                     const uint8_t* const* rows_in, uint8_t* const* rows_out,
                     size_t length, int accumulate) {
    size_t b;
    for (b = 0; b < batch; b++) {
        gf_matmul_one(affine, nib, prod, coeffs, m, n,
                      rows_in + b * n, rows_out + b * m,
                      length, accumulate);
    }
}

/* CRC32C (Castagnoli, reflected 0x82F63B78): the per-unit integrity
 * checksum of the striping layer.  The SSE4.2 hardware instruction
 * computes exactly this polynomial; hosts without it get slicing-by-8
 * over tables built on first use.  Semantics match the Python
 * reference in repro.striping.checksum (init/xorout 0xFFFFFFFF,
 * `value` chains a previous digest). */

#if defined(__SSE4_2__) && defined(__x86_64__)
#include <nmmintrin.h>
#else

static uint32_t crc32c_tab[8][256];
static int crc32c_tab_ready = 0;

static void crc32c_tab_init(void) {
    uint32_t i, j, crc;
    if (crc32c_tab_ready) return;
    for (i = 0; i < 256; i++) {
        crc = i;
        for (j = 0; j < 8; j++)
            crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
        crc32c_tab[0][i] = crc;
    }
    for (i = 0; i < 256; i++) {
        crc = crc32c_tab[0][i];
        for (j = 1; j < 8; j++) {
            crc = crc32c_tab[0][crc & 0xFFu] ^ (crc >> 8);
            crc32c_tab[j][i] = crc;
        }
    }
    crc32c_tab_ready = 1;
}

static int crc32c_little_endian(void) {
    const uint32_t probe = 1;
    uint8_t first;
    memcpy(&first, &probe, 1);
    return first == 1;
}
#endif

uint32_t crc32c_one(const uint8_t* data, size_t length, uint32_t value) {
    size_t p = 0;
    uint32_t crc = value ^ 0xFFFFFFFFu;
#if defined(__SSE4_2__) && defined(__x86_64__)
    {
        uint64_t wide = crc;
        for (; p + 8 <= length; p += 8) {
            uint64_t chunk;
            memcpy(&chunk, data + p, 8);
            wide = _mm_crc32_u64(wide, chunk);
        }
        crc = (uint32_t)wide;
        for (; p < length; p++)
            crc = _mm_crc32_u8(crc, data[p]);
        return crc ^ 0xFFFFFFFFu;
    }
#else
    crc32c_tab_init();
    if (crc32c_little_endian()) {
        for (; p + 8 <= length; p += 8) {
            uint32_t lo, hi;
            memcpy(&lo, data + p, 4);
            memcpy(&hi, data + p + 4, 4);
            lo ^= crc;
            crc = crc32c_tab[7][lo & 0xFFu]
                ^ crc32c_tab[6][(lo >> 8) & 0xFFu]
                ^ crc32c_tab[5][(lo >> 16) & 0xFFu]
                ^ crc32c_tab[4][lo >> 24]
                ^ crc32c_tab[3][hi & 0xFFu]
                ^ crc32c_tab[2][(hi >> 8) & 0xFFu]
                ^ crc32c_tab[1][(hi >> 16) & 0xFFu]
                ^ crc32c_tab[0][hi >> 24];
        }
    }
    for (; p < length; p++)
        crc = crc32c_tab[0][(crc ^ data[p]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
#endif
}

/* One FFI crossing per verification wave: independent CRCs over
 * `count` rows with per-row logical lengths. */
void crc32c_rows(const uint8_t* const* rows, const uint64_t* lengths,
                 size_t count, uint32_t* out) {
    size_t i;
    for (i = 0; i < count; i++)
        out[i] = crc32c_one(rows[i], (size_t)lengths[i], 0);
}

void gf_xor_rows(const uint8_t* const* sources, size_t count,
                 uint8_t* dst, size_t length, int accumulate) {
    size_t j, p, start_j = 0;
    if (count == 0) {
        if (!accumulate) memset(dst, 0, length);
        return;
    }
    if (!accumulate) {
        memcpy(dst, sources[0], length);
        start_j = 1;
    }
    for (j = start_j; j < count; j++) {
        const uint8_t* src = sources[j];
        p = 0;
        for (; p + 8 <= length; p += 8) {
            uint64_t a, b;
            memcpy(&a, dst + p, 8);
            memcpy(&b, src + p, 8);
            a ^= b;
            memcpy(dst + p, &a, 8);
        }
        for (; p < length; p++) dst[p] ^= src[p];
    }
}
"""

#: Build variants, most capable first.  ``-march=native`` unlocks the
#: SIMD tiers; a compiler that rejects it still gets the scalar tier.
_VARIANTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("native", ("-O3", "-march=native")),
    ("generic", ("-O3",)),
)

_TIER_NAMES = {
    3: "GFNI+AVX512",
    2: "GFNI+AVX2",
    1: "AVX2 pshufb",
    0: "scalar C",
}


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-gf"


def _module_name(tag: str) -> str:
    digest = hashlib.sha256(
        (_SOURCE + _CDEF + tag).encode("utf-8")
    ).hexdigest()[:12]
    return f"_repro_gf_{tag}_{digest}"


def _load_shared_object(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem.split(".")[0], path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _find_cached(cache_dir: Path, modname: str) -> "Path | None":
    if not cache_dir.is_dir():
        return None
    for candidate in sorted(cache_dir.glob(modname + "*")):
        if candidate.suffix in (".so", ".pyd", ".dylib"):
            return candidate
    return None


def _compile_variant(tag: str, flags: Sequence[str], cache_dir: Path) -> Path:
    """Compile one variant into the cache; returns the shared object."""
    import cffi

    modname = _module_name(tag)
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(modname, _SOURCE, extra_compile_args=list(flags))
    build_dir = tempfile.mkdtemp(prefix="repro-gf-build-")
    try:
        built = Path(ffi.compile(tmpdir=build_dir, verbose=False))
        cache_dir.mkdir(parents=True, exist_ok=True)
        target = cache_dir / built.name
        staging = target.with_name(target.name + f".tmp{os.getpid()}")
        shutil.copy2(built, staging)
        os.replace(staging, target)  # atomic publish for concurrent builds
        return target
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def _load_or_build():
    """Return ``(lib, ffi, variant_tag)``, building at most once per host."""
    cache_dir = _cache_dir()
    for tag, _flags in _VARIANTS:
        cached = _find_cached(cache_dir, _module_name(tag))
        if cached is not None:
            try:
                module = _load_shared_object(cached)
                return module.lib, module.ffi, tag
            except (ImportError, OSError):
                continue  # stale/foreign .so: rebuild below
    failures = []
    for tag, flags in _VARIANTS:
        try:
            built = _compile_variant(tag, flags, cache_dir)
            module = _load_shared_object(built)
            return module.lib, module.ffi, tag
        except Exception as exc:  # compiler missing, flags rejected, ...
            failures.append(f"{tag}: {type(exc).__name__}: {exc}")
    raise BackendUnavailable(
        "cffi backend could not compile its C module "
        f"({'; '.join(failures)})"
    )


def build_affine_table(field) -> np.ndarray:
    """Per-coefficient GFNI affine qwords for ``field``'s modulus.

    ``GF2P8AFFINEQB`` computes ``A @ x`` over GF(2) where byte ``b`` of
    the qword ``A`` is matrix row ``7 - b`` with bit ``j`` equal to
    ``A[7-b][j]``; loading ``element_to_bitmatrix(c)`` in that layout
    makes the instruction multiply by ``c`` in *this* field.
    """
    from repro.gf.bitmatrix import element_to_bitmatrix

    table = np.zeros(256, dtype=np.uint64)
    for c in range(256):
        matrix = element_to_bitmatrix(c, field)
        value = 0
        for b in range(8):
            row = matrix[7 - b]
            byte_val = 0
            for j in range(8):
                byte_val |= int(row[j]) << j
            value |= byte_val << (8 * b)
        table[c] = value
    return table


def build_nibble_table(field) -> np.ndarray:
    """Per-coefficient split tables for the PSHUFB tier.

    ``nib[c, :16]`` maps a low nibble, ``nib[c, 16:]`` a high nibble;
    XOR of the two lookups is the full product (GF multiplication is
    linear over the nibble split).
    """
    prod = field._prod
    nib = np.empty((256, 32), dtype=np.uint8)
    nib[:, :16] = prod[:, :16]
    nib[:, 16:] = prod[:, np.arange(16) << 4]
    return np.ascontiguousarray(nib)


class CffiBackend(KernelBackend):
    """SIMD-tiered compiled kernels behind the cffi FFI."""

    name = "cffi"
    is_native = True

    def __init__(self):
        try:
            import cffi  # noqa: F401
        except ImportError as exc:
            raise BackendUnavailable(f"cffi is not installed: {exc}") from exc
        self._lib, self._ffi, self.variant = _load_or_build()
        self.tier = int(self._lib.gf_kernel_tier())
        #: field modulus -> (affine, nibble, product) table trio, kept
        #: alive for the lifetime of the backend so the C side can hold
        #: bare pointers during calls.
        self._tables: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def tier_description(self) -> str:
        return f"compiled C, {_TIER_NAMES.get(self.tier, f'tier {self.tier}')}"

    def _tables_for(self, field) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = field.primitive_poly
        trio = self._tables.get(key)
        if trio is None:
            prod = np.ascontiguousarray(field._prod)
            trio = (build_affine_table(field), build_nibble_table(field), prod)
            self._tables[key] = trio
        return trio

    def _row_pointers(self, rows: Sequence[np.ndarray], const: bool):
        ctype = "const uint8_t *[]" if const else "uint8_t *[]"
        cast_to = "const uint8_t *" if const else "uint8_t *"
        return self._ffi.new(
            ctype,
            [self._ffi.cast(cast_to, row.ctypes.data) for row in rows],
        )

    def matmul(
        self,
        field,
        coeffs: np.ndarray,
        rows_in: Sequence[np.ndarray],
        rows_out: Sequence[np.ndarray],
        accumulate: bool = False,
    ) -> None:
        if not rows_out:
            return
        affine, nib, prod = self._tables_for(field)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.uint8)
        m, n = coeffs.shape
        length = int(rows_out[0].shape[0])
        ffi = self._ffi
        self._lib.gf_matmul(
            ffi.cast("const uint64_t *", affine.ctypes.data),
            ffi.cast("const uint8_t *", nib.ctypes.data),
            ffi.cast("const uint8_t *", prod.ctypes.data),
            ffi.cast("const uint8_t *", coeffs.ctypes.data),
            m,
            n,
            self._row_pointers(rows_in, const=True),
            self._row_pointers(rows_out, const=False),
            length,
            1 if accumulate else 0,
        )

    def matmul_batch(
        self,
        field,
        coeffs: np.ndarray,
        batch_rows_in: Sequence[Sequence[np.ndarray]],
        batch_rows_out: Sequence[Sequence[np.ndarray]],
        accumulate: bool = False,
    ) -> None:
        self.bind_matmul_batch(
            field, coeffs, batch_rows_in, batch_rows_out, accumulate
        )()

    def bind_matmul_batch(
        self,
        field,
        coeffs: np.ndarray,
        batch_rows_in: Sequence[Sequence[np.ndarray]],
        batch_rows_out: Sequence[Sequence[np.ndarray]],
        accumulate: bool = False,
    ):
        affine, nib, prod = self._tables_for(field)
        coeffs = np.ascontiguousarray(coeffs, dtype=np.uint8)
        m, n = coeffs.shape
        flat_in = [row for rows in batch_rows_in for row in rows]
        flat_out = [row for rows in batch_rows_out for row in rows]
        batch = len(batch_rows_out)
        if len(flat_in) != batch * n or len(flat_out) != batch * m:
            raise ValueError(
                "batch rows do not match the coefficient matrix shape"
            )
        length = int(flat_out[0].shape[0]) if flat_out else 0
        ffi = self._ffi
        lib = self._lib
        # Pointer arrays and table pointers are marshalled once, here;
        # the closure is a single C call per invocation.  The row and
        # table arrays are captured so the bare pointers stay alive.
        args = (
            ffi.cast("const uint64_t *", affine.ctypes.data),
            ffi.cast("const uint8_t *", nib.ctypes.data),
            ffi.cast("const uint8_t *", prod.ctypes.data),
            ffi.cast("const uint8_t *", coeffs.ctypes.data),
            m,
            n,
            batch,
            self._row_pointers(flat_in, const=True),
            self._row_pointers(flat_out, const=False),
            length,
            1 if accumulate else 0,
        )
        keepalive = (affine, nib, prod, coeffs, flat_in, flat_out)

        def execute() -> None:
            lib.gf_matmul_batch(*args)
            _ = keepalive  # noqa: F841 - anchors buffer lifetimes

        if not batch or not m:
            return lambda: None
        return execute

    def xor_rows(
        self,
        sources: Sequence[np.ndarray],
        dst: np.ndarray,
        accumulate: bool = False,
    ) -> None:
        ffi = self._ffi
        self._lib.gf_xor_rows(
            self._row_pointers(sources, const=True),
            len(sources),
            ffi.cast("uint8_t *", dst.ctypes.data),
            int(dst.shape[0]),
            1 if accumulate else 0,
        )

    def crc32c(self, data: np.ndarray, value: int = 0) -> int:
        """CRC32C of one contiguous uint8 buffer (chains ``value``)."""
        return int(
            self._lib.crc32c_one(
                self._ffi.cast("const uint8_t *", data.ctypes.data),
                int(data.size),
                int(value) & 0xFFFFFFFF,
            )
        )

    def crc32c_rows(
        self, rows: Sequence[np.ndarray], lengths: Sequence[int]
    ) -> np.ndarray:
        """One CRC32C per row, one FFI crossing for the whole wave."""
        out = np.empty(len(rows), dtype=np.uint32)
        if not rows:
            return out
        length_arr = np.ascontiguousarray(lengths, dtype=np.uint64)
        self._lib.crc32c_rows(
            self._row_pointers(rows, const=True),
            self._ffi.cast("const uint64_t *", length_arr.ctypes.data),
            len(rows),
            self._ffi.cast("uint32_t *", out.ctypes.data),
        )
        return out
