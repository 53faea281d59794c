#ifndef ERRORFLOW_TENSOR_KERNELS_H_
#define ERRORFLOW_TENSOR_KERNELS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace errorflow {
namespace tensor {

/// \brief Compute-kernel layer under tensor::ops (docs/PERFORMANCE.md).
///
/// All dense linear algebra in the library funnels into the raw kernels
/// declared here: cache-blocked micro-kernels with register-tiled inner
/// loops, AVX2+FMA and AVX-512 implementations selected at runtime on x86-64
/// (with a portable fallback of the same numerics), and row-partitioned
/// multithreading over a process-shared util::ThreadPool. Small problems
/// stay serial: a GEMM is fanned out only when its FLOP count crosses the
/// parallel threshold, so per-layer latency never regresses for the narrow
/// models of the paper.
///
/// Buffers are row-major, dense, non-aliasing. Output buffers are fully
/// overwritten.

/// Sets the kernel worker count. `n <= 0` restores the default
/// (ERRORFLOW_KERNEL_THREADS env var, else hardware concurrency). The pool
/// is recreated lazily; callers must not resize while kernels are running.
void SetKernelThreads(int n);

/// Current kernel worker count (1 means all kernels run serially).
int KernelThreads();

/// Minimum FLOP count (2*m*n*k) at which a GEMM is parallelized.
void SetKernelParallelFlopThreshold(int64_t flops);

/// The instruction-set path every kernel call runs on, chosen once at
/// startup: the widest this host supports (docs/PERFORMANCE.md, "Kernel
/// paths"). All paths produce the same bits: every output runs the same
/// chain of fused multiply-adds from +0 in the same k order, then one
/// bias add. Each kernel's body is written once and compiled per path. On
/// kAvx512, GemmKernel, GemmTNKernel, GemvTKernel, Conv2dKernel and
/// TanhKernel run it on 16 lanes, and GemmNTKernel takes its packed-panel
/// 16-lane tile when m >= k and the panel fits in 32 KiB. GemvKernel and
/// GemmNTKernel's dot tile stay on 8-lane chains on every path, because
/// their contract fixes the lane count.
enum class KernelPath { kPortable, kAvx2, kAvx512 };

/// "portable", "avx2" or "avx512".
const char* KernelPathName(KernelPath path);

/// The paths this host supports, narrowest first; the last is the default.
std::vector<KernelPath> SupportedKernelPaths();

/// The path every kernel call runs on: the default, unless a test set
/// another with SetKernelPathForTest.
KernelPath ActiveKernelPath();

/// Test-only (tests and the per-path bench rows): runs every later kernel
/// call on `path`, which must be in SupportedKernelPaths(). The setting is
/// process-wide; switch it from one thread while no kernel runs, and
/// restore SupportedKernelPaths().back().
void SetKernelPathForTest(KernelPath path);

/// Human-readable summary naming the live path and the worker count, e.g.
/// "avx512 kernel path, 4 threads" (bench output and BENCH host records).
std::string KernelDescription();

/// C(m x n) = A(m x k) * B(k x n).
void GemmKernel(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k);

/// C(m x n) = A(m x k) * B^T, with B stored as (n x k), plus bias[j] on
/// every row when `bias` (n floats) is non-null: the dense-layer forward.
/// Each output's fma chain ends in one float add of bias[j] in the store,
/// the single add a separate `c += bias[j]` pass would do, so the bits are
/// the same. With a null `bias` nothing is added (-0 stays -0).
void GemmNTKernel(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k, const float* bias);

/// C(m x n) = A^T * B(k x n), with A stored as (k x m).
void GemmTNKernel(const float* a, const float* b, float* c, int64_t m,
                  int64_t n, int64_t k);

/// y(m) = W(m x n) * x(n).
void GemvKernel(const float* w, const float* x, float* y, int64_t m,
                int64_t n);

/// y(n) = W^T(m x n) * x(m).
void GemvTKernel(const float* w, const float* x, float* y, int64_t m,
                 int64_t n);

/// Geometry of one NCHW convolution: `n` images of `c` x `h` x `w`, a
/// square `k` x `k` kernel at stride `s` with `p` zero padding on every
/// side, `out_ch` output channels.
struct ConvGeometry {
  int64_t n, c, h, w, out_ch;
  int k, s, p;
  int64_t oh() const { return (h + 2 * p - k) / s + 1; }
  int64_t ow() const { return (w + 2 * p - k) / s + 1; }
};

/// Implicit-GEMM convolution: out(n, out_ch, oh, ow) from in(n, c, h, w)
/// and the kernel matrix weight(out_ch, c*k*k), plus bias[oc] when `bias`
/// is non-null (docs/PERFORMANCE.md, "Batched convolution execution").
/// GEMM column panels are packed straight from the NCHW input, padded taps
/// as +0, and every output element runs GemmKernel's multiply-add chain
/// over l = (ch, ky, kx) in order from +0, then one float add of the bias,
/// stored straight into NCHW. The result is bit-identical to an im2col
/// column matrix through GemmKernel followed by `+ bias[oc]`. With a null
/// `bias` nothing is added (adding +0 would turn -0 into +0). Column
/// blocks fan out across the pool; each writes disjoint outputs, so
/// threaded runs are bit-identical to serial ones.
void Conv2dKernel(const float* weight, const float* bias, const float* in,
                  float* out, const ConvGeometry& g);

/// y[i] = tanh(x[i]), bit-identical to std::tanh(float) on a glibc libm,
/// whose float tanhf is fdlibm's: a port of its float operations
/// (docs/PERFORMANCE.md, "Activation kernels"). AVX-512 runs it on four
/// 16-lane vectors at a time, interleaved operation by operation, then on
/// one vector, then on a masked n % 16 tail; AVX2 runs it on 8 lanes, then
/// on a masked n % 8 tail; the portable path runs std::tanh. `y` may equal
/// `x`.
void TanhKernel(const float* x, float* y, int64_t n);

/// True when a problem of `flops` floating-point operations would fan out
/// across the shared pool (threshold crossed, >1 worker configured, and the
/// caller is not itself a pool worker). Callers use this to skip building a
/// std::function on the serial path, keeping small steady-state calls
/// allocation-free.
bool KernelWillParallelize(int64_t flops);

/// Splits [0, n) into contiguous chunks and runs `body(begin, end)` across
/// the shared kernel pool (chunk 0 inline on the caller), subject to the
/// same FLOP threshold and nested-call guard as the GEMM kernels. Falls
/// back to one inline `body(0, n)` call when serial. The partition is by
/// index only, so bodies whose chunks write disjoint ranges produce results
/// bit-identical to a serial run.
void ParallelChunksKernel(int64_t n, int64_t flops,
                          const std::function<void(int64_t, int64_t)>& body);

}  // namespace tensor
}  // namespace errorflow

#endif  // ERRORFLOW_TENSOR_KERNELS_H_
