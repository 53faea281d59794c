// Conv execution benchmark: Conv2dLayer's forward (the implicit-GEMM
// tensor::Conv2dKernel) and batched backward vs two retained paths, on the
// EuroSAT ResNet conv shapes at batch 1/8/32, single- and multi-thread:
//  - the seed per-sample path (per-element im2col, one small GemmNT per
//    sample, scalar bias/transpose), forward and backward;
//  - the batched im2col path the kernel replaced (one channel-major column
//    matrix for the batch, one GemmKernel, a bias-add relayout to NCHW),
//    forward only.
//
// Usage: bench_conv [max_threads] [json_path]
//
// Prints a table with one row per kernel path and writes the same timings
// as BENCH records (default BENCH_conv.json; schema in
// docs/PERFORMANCE.md), so the perf trajectory is diffable across changes.
// Before timing anything it checks, on every shape and every kernel path
// the host supports, that the forward is bit-identical to the AVX2 path's,
// that the threaded forward is bit-identical to the serial one and that
// the forward is bit-identical to the im2col path; it exits 1 naming the
// shape and path otherwise.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/record_writer.h"
#include "nn/conv2d.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace {

using errorflow::nn::Conv2dLayer;
using errorflow::tensor::Shape;
using errorflow::tensor::Tensor;

// EuroSAT ResNet conv shapes (16x16 inputs, 13 bands, stages
// {8,16,32,64}): the stem, the stride-2 stage entries, a 1x1 projection
// shortcut, and the 3x3 stride-1 interior convs (12 of the model's 17).
struct ConvShape {
  const char* name;
  int64_t in_ch, out_ch, h, w;
  int k, s, p;
};

const ConvShape kShapes[] = {
    {"stem_13x16x16_k3", 13, 8, 16, 16, 3, 1, 1},
    {"stage1_8x16x16_k3s2", 8, 16, 16, 16, 3, 2, 1},
    {"stage2_16x8x8_k3s2", 16, 32, 8, 8, 3, 2, 1},
    {"stage3_32x4x4_k3s2", 32, 64, 4, 4, 3, 2, 1},
    {"proj_8x16x16_k1s2", 8, 16, 16, 16, 1, 2, 0},
    {"interior_8x16x16_k3", 8, 8, 16, 16, 3, 1, 1},
    {"interior_16x8x8_k3", 16, 16, 8, 8, 3, 1, 1},
    {"interior_32x4x4_k3", 32, 32, 4, 4, 3, 1, 1},
    {"interior_64x2x2_k3", 64, 64, 2, 2, 3, 1, 1},
};

int64_t OutDim(int64_t in, int k, int s, int p) {
  return (in + 2 * p - k) / s + 1;
}

// --- Retained seed per-sample path (pre-batching Conv2dLayer::Forward /
// ::Backward), kept verbatim so the comparison survives the original's
// deletion. ---------------------------------------------------------------

void SeedIm2Col(const float* in, int64_t c, int64_t h, int64_t w, int k,
                int s, int p, Tensor* cols) {
  const int64_t oh = OutDim(h, k, s, p), ow = OutDim(w, k, s, p);
  const int64_t ckk = c * k * k;
  if (cols->shape() != Shape{oh * ow, ckk}) *cols = Tensor({oh * ow, ckk});
  float* out = cols->data();
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox = 0; ox < ow; ++ox) {
      float* row = out + (oy * ow + ox) * ckk;
      int64_t idx = 0;
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* plane = in + ch * h * w;
        for (int ky = 0; ky < k; ++ky) {
          const int64_t iy = oy * s + ky - p;
          for (int kx = 0; kx < k; ++kx) {
            const int64_t ix = ox * s + kx - p;
            row[idx++] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                             ? plane[iy * w + ix]
                             : 0.0f;
          }
        }
      }
    }
  }
}

void SeedCol2Im(const Tensor& cols, int64_t c, int64_t h, int64_t w, int k,
                int s, int p, float* out) {
  const int64_t oh = OutDim(h, k, s, p), ow = OutDim(w, k, s, p);
  const int64_t ckk = c * k * k;
  const float* in = cols.data();
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox = 0; ox < ow; ++ox) {
      const float* row = in + (oy * ow + ox) * ckk;
      int64_t idx = 0;
      for (int64_t ch = 0; ch < c; ++ch) {
        float* plane = out + ch * h * w;
        for (int ky = 0; ky < k; ++ky) {
          const int64_t iy = oy * s + ky - p;
          for (int kx = 0; kx < k; ++kx) {
            const int64_t ix = ox * s + kx - p;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
              plane[iy * w + ix] += row[idx];
            }
            ++idx;
          }
        }
      }
    }
  }
}

void SeedForward(const Tensor& input, const Tensor& wmat, const Tensor& bias,
                 const ConvShape& cs, Tensor* output) {
  const int64_t n = input.dim(0);
  const int64_t oh = OutDim(cs.h, cs.k, cs.s, cs.p);
  const int64_t ow = OutDim(cs.w, cs.k, cs.s, cs.p);
  if (output->shape() != Shape{n, cs.out_ch, oh, ow}) {
    *output = Tensor({n, cs.out_ch, oh, ow});
  }
  Tensor cols, out_mat;
  for (int64_t img = 0; img < n; ++img) {
    SeedIm2Col(input.data() + img * cs.in_ch * cs.h * cs.w, cs.in_ch, cs.h,
               cs.w, cs.k, cs.s, cs.p, &cols);
    errorflow::tensor::GemmNT(cols, wmat, &out_mat);
    float* out = output->data() + img * cs.out_ch * oh * ow;
    for (int64_t pix = 0; pix < oh * ow; ++pix) {
      for (int64_t oc = 0; oc < cs.out_ch; ++oc) {
        out[oc * oh * ow + pix] = out_mat.at(pix, oc) + bias[oc];
      }
    }
  }
}

void SeedBackward(const Tensor& x, const Tensor& grad_output,
                  const Tensor& wmat, const ConvShape& cs,
                  Tensor* grad_input, Tensor* weight_grad,
                  Tensor* bias_grad) {
  const int64_t n = x.dim(0);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  if (grad_input->shape() != x.shape()) *grad_input = Tensor(x.shape());
  grad_input->Fill(0.0f);
  Tensor grad_eff({cs.out_ch, cs.in_ch * cs.k * cs.k});
  Tensor cols, gmat({oh * ow, cs.out_ch}), gcols, contrib;
  for (int64_t img = 0; img < n; ++img) {
    const float* go = grad_output.data() + img * cs.out_ch * oh * ow;
    for (int64_t pix = 0; pix < oh * ow; ++pix) {
      for (int64_t oc = 0; oc < cs.out_ch; ++oc) {
        gmat.at(pix, oc) = go[oc * oh * ow + pix];
      }
    }
    for (int64_t oc = 0; oc < cs.out_ch; ++oc) {
      double acc = 0.0;
      for (int64_t pix = 0; pix < oh * ow; ++pix) acc += gmat.at(pix, oc);
      (*bias_grad)[oc] += static_cast<float>(acc);
    }
    SeedIm2Col(x.data() + img * cs.in_ch * cs.h * cs.w, cs.in_ch, cs.h, cs.w,
               cs.k, cs.s, cs.p, &cols);
    errorflow::tensor::GemmTN(gmat, cols, &contrib);
    errorflow::tensor::Add(grad_eff, contrib, &grad_eff);
    errorflow::tensor::Gemm(gmat, wmat, &gcols);
    SeedCol2Im(gcols, cs.in_ch, cs.h, cs.w, cs.k, cs.s, cs.p,
               grad_input->data() + img * cs.in_ch * cs.h * cs.w);
  }
  errorflow::tensor::Add(*weight_grad, grad_eff, weight_grad);
}

// --- Retained batched im2col path (Conv2dLayer::Forward before the
// implicit-GEMM kernel): gather, GEMM and relayout each fan out across the
// kernel pool when the GEMM crosses the parallel threshold. ---------------

// One sample into the channel-major (C*K*K, N*OH*OW) column matrix, one
// clipped memset/memcpy run per (row, oy).
void Im2ColSample(const float* in, const ConvShape& cs, int64_t oh,
                  int64_t ow, float* cols, int64_t col_stride) {
  for (int64_t ch = 0; ch < cs.in_ch; ++ch) {
    const float* plane = in + ch * cs.h * cs.w;
    for (int ky = 0; ky < cs.k; ++ky) {
      for (int kx = 0; kx < cs.k; ++kx) {
        float* dst = cols + ((ch * cs.k + ky) * cs.k + kx) * col_stride;
        const int64_t a = cs.p - kx;
        const int64_t ox_lo = a <= 0 ? 0 : (a + cs.s - 1) / cs.s;
        const int64_t b = cs.w - 1 + cs.p - kx;
        const int64_t ox_hi = b < 0 ? 0 : std::min<int64_t>(ow, b / cs.s + 1);
        for (int64_t oy = 0; oy < oh; ++oy, dst += ow) {
          const int64_t iy = oy * cs.s + ky - cs.p;
          if (iy < 0 || iy >= cs.h || ox_hi <= ox_lo) {
            std::memset(dst, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          std::memset(dst, 0, static_cast<size_t>(ox_lo) * sizeof(float));
          const float* src = plane + iy * cs.w + kx - cs.p;
          if (cs.s == 1) {
            std::memcpy(dst + ox_lo, src + ox_lo,
                        static_cast<size_t>(ox_hi - ox_lo) * sizeof(float));
          } else {
            for (int64_t ox = ox_lo; ox < ox_hi; ++ox) dst[ox] = src[ox * cs.s];
          }
          std::memset(dst + ox_hi, 0,
                      static_cast<size_t>(ow - ox_hi) * sizeof(float));
        }
      }
    }
  }
}

void Im2ColForward(const Tensor& input, const Tensor& wmat,
                   const Tensor& bias, const ConvShape& cs,
                   std::vector<float>* cols, std::vector<float>* mat,
                   Tensor* output) {
  const int64_t n = input.dim(0);
  const int64_t oh = OutDim(cs.h, cs.k, cs.s, cs.p);
  const int64_t ow = OutDim(cs.w, cs.k, cs.s, cs.p);
  const int64_t ohow = oh * ow, cols_n = n * ohow;
  const int64_t ckk = cs.in_ch * cs.k * cs.k;
  if (output->shape() != Shape{n, cs.out_ch, oh, ow}) {
    *output = Tensor({n, cs.out_ch, oh, ow});
  }
  cols->resize(static_cast<size_t>(ckk * cols_n));
  mat->resize(static_cast<size_t>(cs.out_ch * cols_n));
  const int64_t flops = 2 * cols_n * cs.out_ch * ckk;
  const float* in = input.data();
  float* cm = cols->data();
  errorflow::tensor::ParallelChunksKernel(n, flops, [&](int64_t i0,
                                                        int64_t i1) {
    for (int64_t img = i0; img < i1; ++img) {
      Im2ColSample(in + img * cs.in_ch * cs.h * cs.w, cs, oh, ow,
                   cm + img * ohow, cols_n);
    }
  });
  errorflow::tensor::GemmKernel(wmat.data(), cm, mat->data(), cs.out_ch,
                                cols_n, ckk);
  const float* om = mat->data();
  float* out = output->data();
  errorflow::tensor::ParallelChunksKernel(n, flops, [&](int64_t i0,
                                                        int64_t i1) {
    for (int64_t img = i0; img < i1; ++img) {
      for (int64_t oc = 0; oc < cs.out_ch; ++oc) {
        const float* src = om + oc * cols_n + img * ohow;
        float* dst = out + (img * cs.out_ch + oc) * ohow;
        for (int64_t pix = 0; pix < ohow; ++pix) dst[pix] = src[pix] + bias[oc];
      }
    }
  });
}

// -------------------------------------------------------------------------

Tensor RandomTensor(Shape shape, uint64_t seed) {
  errorflow::util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Normal());
  }
  return t;
}

double TimeIt(const std::function<void()>& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace ef = errorflow::tensor;
  const int max_threads = argc > 1 ? std::atoi(argv[1]) : 4;
  const char* json_path = argc > 2 ? argv[2] : "BENCH_conv.json";
  std::printf("kernels: %s\nhost: %u cores, isa: %s\n\n",
              ef::KernelDescription().c_str(),
              std::thread::hardware_concurrency(),
              errorflow::bench::HostIsaFlags().c_str());

  // Determinism and equivalence cross-checks on every shape and kernel
  // path: the threaded forward must be bit-identical to the serial
  // forward, both to the im2col path, and every path's forward to the
  // AVX2 path's (the only path on a host without AVX2 is its own
  // reference).
  const std::vector<ef::KernelPath> paths = ef::SupportedKernelPaths();
  const ef::KernelPath ref_path =
      paths.size() > 1 ? ef::KernelPath::kAvx2 : paths.front();
  std::vector<float> cols, mat;
  for (const ConvShape& cs : kShapes) {
    Conv2dLayer conv(cs.in_ch, cs.out_ch, cs.k, cs.s, cs.p);
    conv.InitHe(7);
    for (int64_t i = 0; i < cs.out_ch; ++i) {
      conv.mutable_bias()[i] = 0.01f * static_cast<float>(i) - 0.2f;
    }
    const Tensor x = RandomTensor({32, cs.in_ch, cs.h, cs.w}, 11);
    ef::SetKernelThreads(1);
    ef::SetKernelPathForTest(ref_path);
    Tensor ref;
    conv.Forward(x, &ref, false);
    for (const ef::KernelPath path : paths) {
      const char* name = ef::KernelPathName(path);
      ef::SetKernelPathForTest(path);
      ef::SetKernelThreads(1);
      Tensor serial, im2col;
      conv.Forward(x, &serial, false);
      Im2ColForward(x, conv.weight(), conv.bias(), cs, &cols, &mat, &im2col);
      ef::SetKernelThreads(max_threads);
      ef::SetKernelParallelFlopThreshold(1);
      Tensor threaded;
      conv.Forward(x, &threaded, false);
      ef::SetKernelParallelFlopThreshold(1 << 21);
      if (!BitIdentical(serial, ref)) {
        std::printf("FATAL: %s path forward differs from the %s path on %s\n",
                    name, ef::KernelPathName(ref_path), cs.name);
        return 1;
      }
      if (!BitIdentical(serial, threaded)) {
        std::printf("FATAL: threaded forward differs from serial on %s (%s)\n",
                    cs.name, name);
        return 1;
      }
      if (!BitIdentical(serial, im2col)) {
        std::printf(
            "FATAL: forward differs from the im2col path on %s (%s)\n",
            cs.name, name);
        return 1;
      }
    }
  }
  ef::SetKernelPathForTest(paths.back());
  std::printf(
      "forward bit-identical on every kernel path, threaded vs serial and "
      "vs im2col: yes\n\n");

  errorflow::bench::RecordWriter records("conv_batched",
                                        {{"max_threads", max_threads}});
  for (const int threads : {1, max_threads}) {
    ef::SetKernelThreads(threads);
    std::printf("--- %d kernel thread(s) ---\n", threads);
    std::printf("%-22s %5s %-9s %9s %9s %9s %8s %9s %9s %8s\n", "shape",
                "batch", "path", "fwd seed", "fwd i2c", "fwd new", "vs i2c",
                "bwd seed", "bwd new", "speedup");
    for (const ConvShape& cs : kShapes) {
      for (const int64_t batch : {1, 8, 32}) {
        for (const ef::KernelPath path : paths) {
          ef::SetKernelPathForTest(path);
          Conv2dLayer conv(cs.in_ch, cs.out_ch, cs.k, cs.s, cs.p);
          conv.InitHe(7);
          const Tensor x = RandomTensor({batch, cs.in_ch, cs.h, cs.w}, 13);
          Tensor out, seed_out, im2col_out;
          conv.Forward(x, &out, true);
          Tensor grad_out(out.shape());
          for (int64_t i = 0; i < grad_out.size(); ++i) {
            grad_out[i] = 0.01f * static_cast<float>(i % 17);
          }
          Tensor grad_in, seed_gin;
          Tensor seed_wg(conv.weight().shape()), seed_bg(conv.bias().shape());
          const int reps = batch >= 32 ? 15 : 25;

          const double fwd_seed = TimeIt(
              [&] {
                SeedForward(x, conv.weight(), conv.bias(), cs, &seed_out);
              },
              reps);
          const double fwd_im2col = TimeIt(
              [&] {
                Im2ColForward(x, conv.weight(), conv.bias(), cs, &cols, &mat,
                              &im2col_out);
              },
              reps);
          const double fwd_new =
              TimeIt([&] { conv.Forward(x, &out, false); }, reps);
          const double bwd_seed = TimeIt(
              [&] {
                SeedBackward(x, grad_out, conv.weight(), cs, &seed_gin,
                             &seed_wg, &seed_bg);
              },
              reps);
          // Keep the training cache warm so Backward times the steady state.
          conv.Forward(x, &out, true);
          const double bwd_new =
              TimeIt([&] { conv.Backward(grad_out, &grad_in); }, reps);

          std::printf(
              "%-22s %5lld %-9s %9.3f %9.3f %9.3f %7.2fx %9.3f %9.3f "
              "%7.2fx\n",
              cs.name, static_cast<long long>(batch), ef::KernelPathName(path),
              fwd_seed * 1e3, fwd_im2col * 1e3, fwd_new * 1e3,
              fwd_im2col / fwd_new, bwd_seed * 1e3, bwd_new * 1e3,
              bwd_seed / bwd_new);
          const errorflow::bench::Fields key = {
              {"shape", cs.name},
              {"batch", batch},
              {"threads", threads},
              {"path", ef::KernelPathName(path)}};
          for (const auto& [metric, seconds] :
               {std::pair{"fwd_seed_ms", fwd_seed},
                {"fwd_im2col_ms", fwd_im2col},
                {"fwd_new_ms", fwd_new},
                {"bwd_seed_ms", bwd_seed},
                {"bwd_new_ms", bwd_new}}) {
            records.Add(key, metric, seconds * 1e3, "ms",
                        errorflow::bench::Source::kMeasured);
          }
        }
      }
    }
    std::printf("\n");
  }
  ef::SetKernelPathForTest(paths.back());
  ef::SetKernelThreads(0);

  return records.Write(json_path).ok() ? 0 : 1;
}
