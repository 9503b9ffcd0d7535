package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServeCheck measures the full request path — admission,
// pooled body read, check, JSON response — without network noise
// (in-process handler dispatch). Gated by hvbench against the
// BENCH_baseline.json trajectory like the parser benchmarks.
func BenchmarkServeCheck(b *testing.B) {
	s := New(Config{TenantRate: -1})
	body := Bodies(22, 1)[0]
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status = %d", w.Code)
		}
	}
}
