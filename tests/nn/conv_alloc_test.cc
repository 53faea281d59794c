// Verifies the steady-state zero-allocation contract of the batched conv
// path (docs/PERFORMANCE.md): after warmup, inference Forward and a
// training Forward/Backward step perform no heap allocations in serial
// mode. Lives in its own test binary because it replaces the global
// operator new/delete to count allocations.
#include <atomic>
#include <cstdlib>
#include <new>

#include "gtest/gtest.h"
#include "nn/builders.h"
#include "nn/conv2d.h"
#include "nn/model.h"
#include "nn/pool.h"
#include "tensor/kernels.h"
#include "testing/test_util.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

// The replaced operators pair malloc with free; GCC cannot see that the
// pointers it flags came from these malloc-backed news.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

void* operator new(std::size_t size, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace errorflow {
namespace nn {
namespace {

using tensor::Tensor;

int64_t CountAllocs(const std::function<void()>& fn) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

class ConvAllocTest : public ::testing::Test {
 protected:
  // Serial mode: the parallel dispatch path intentionally builds
  // std::function/future state, so the zero-allocation contract is for the
  // serial steady state (and for per-chunk work bodies when threaded).
  void SetUp() override { tensor::SetKernelThreads(1); }
  void TearDown() override { tensor::SetKernelThreads(0); }
};

TEST_F(ConvAllocTest, SteadyStateInferenceForwardAllocFree) {
  Conv2dLayer conv(13, 8, 3, 1, 1);
  conv.InitHe(3);
  const Tensor x = testing::RandomTensor({8, 13, 16, 16}, 5);
  Tensor out;
  for (int i = 0; i < 2; ++i) conv.Forward(x, &out, false);  // warmup
  const int64_t allocs = CountAllocs([&] {
    for (int i = 0; i < 5; ++i) conv.Forward(x, &out, false);
  });
  EXPECT_EQ(allocs, 0);
}

TEST_F(ConvAllocTest, SteadyStateTrainingStepAllocFree) {
  Conv2dLayer conv(4, 6, 3, 2, 1);
  conv.InitHe(7);
  const Tensor x = testing::RandomTensor({4, 4, 12, 12}, 9);
  Tensor out, grad_out, grad_in;
  for (int i = 0; i < 2; ++i) {  // warmup grows every cache
    conv.Forward(x, &out, true);
    if (grad_out.shape() != out.shape()) {
      grad_out = Tensor(out.shape());
      grad_out.Fill(0.5f);
    }
    conv.Backward(grad_out, &grad_in);
  }
  const int64_t allocs = CountAllocs([&] {
    for (int i = 0; i < 3; ++i) {
      conv.Forward(x, &out, true);
      conv.Backward(grad_out, &grad_in);
    }
  });
  EXPECT_EQ(allocs, 0);
}

TEST_F(ConvAllocTest, SteadyStatePoolForwardBackwardAllocFree) {
  GlobalAvgPoolLayer pool;
  const Tensor x = testing::RandomTensor({4, 6, 8, 8}, 11);
  Tensor out, grad_out, grad_in;
  for (int i = 0; i < 2; ++i) {
    pool.Forward(x, &out, true);
    if (grad_out.shape() != out.shape()) {
      grad_out = Tensor(out.shape());
      grad_out.Fill(1.0f);
    }
    pool.Backward(grad_out, &grad_in);
  }
  const int64_t allocs = CountAllocs([&] {
    for (int i = 0; i < 3; ++i) {
      pool.Forward(x, &out, true);
      pool.Backward(grad_out, &grad_in);
    }
  });
  EXPECT_EQ(allocs, 0);
}

// Model inference writes every layer but the last into the calling
// thread's reused outputs and reads its input in place, so after warmup a
// Predict on the h2 surrogate's shape (9 -> 50 -> 50 -> 9, tanh, 1024
// rows) allocates its returned tensor and nothing else.
TEST_F(ConvAllocTest, SteadyStateMlpPredictAllocatesOnlyItsResult) {
  MlpConfig cfg;
  cfg.input_dim = 9;
  cfg.hidden_dims = {50, 50};
  cfg.output_dim = 9;
  cfg.activation = ActivationKind::kTanh;
  cfg.seed = 7;
  Model model = BuildMlp(cfg);
  const Tensor x = testing::RandomTensor({1024, 9}, 11, 2.0);
  for (int i = 0; i < 2; ++i) model.Predict(x);  // warmup
  const int64_t result_allocs = CountAllocs([] { Tensor t({1024, 9}); });
  ASSERT_GT(result_allocs, 0);
  const int64_t allocs = CountAllocs([&] { model.Predict(x); });
  EXPECT_EQ(allocs, result_allocs);
}

}  // namespace
}  // namespace nn
}  // namespace errorflow
