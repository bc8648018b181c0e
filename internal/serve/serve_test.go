package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, []float32) {
	t.Helper()
	m, test := toyModel(t, 30)
	s, err := NewServer(m, Config{Batch: BatchConfig{MaxBatch: 8, MaxDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, test.Images[:m.InputDim()]
}

func postPredict(t *testing.T, url string, input []float32, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(predictRequest{Input: input})
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/predict", bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestPredictEndpoint(t *testing.T) {
	s, ts, input := newTestServer(t)
	resp, body := postPredict(t, ts.URL, input, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Logits) != s.model.Classes() {
		t.Fatalf("got %d logits", len(pr.Logits))
	}
	// The response argmax must agree with the model's own answer.
	want, _ := s.model.Predict(input, 1)
	wi := 0
	for i, v := range want {
		if v > want[wi] {
			wi = i
		}
	}
	if pr.Argmax != wi {
		t.Errorf("argmax %d, model says %d", pr.Argmax, wi)
	}
	for i := range want {
		if pr.Logits[i] != want[i] {
			t.Errorf("logit %d: %v != %v", i, pr.Logits[i], want[i])
		}
	}
}

func TestPredictRejectsBadRequests(t *testing.T) {
	_, ts, input := newTestServer(t)
	cases := []struct {
		name string
		do   func() (*http.Response, []byte)
	}{
		{"wrong dim", func() (*http.Response, []byte) {
			return postPredict(t, ts.URL, input[:5], nil)
		}},
		{"bad deadline header", func() (*http.Response, []byte) {
			return postPredict(t, ts.URL, input, map[string]string{"X-Deadline-Ms": "soon"})
		}},
		{"bad json", func() (*http.Response, []byte) {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			return resp, nil
		}},
	}
	for _, c := range cases {
		resp, _ := c.do()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d, want 405", resp.StatusCode)
	}
}

func TestPredictDeadlineHeader(t *testing.T) {
	_, ts, input := newTestServer(t)
	// A generous deadline succeeds.
	resp, body := postPredict(t, ts.URL, input, map[string]string{"X-Deadline-Ms": "5000"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d: %s", resp.StatusCode, body)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s, ts, input := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz %d %v", resp.StatusCode, h)
	}
	postPredict(t, ts.URL, input, nil)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Served < 1 || st.Batches < 1 {
		t.Errorf("stats after a served request: %+v", st)
	}

	// Draining flips healthz to 503 and predict to 503.
	s.Drain()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", resp.StatusCode)
	}
	resp, _ = postPredict(t, ts.URL, input, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining predict status %d, want 503", resp.StatusCode)
	}
}

// Overload over HTTP: requests hitting a full queue get 429 with
// Retry-After, while admitted requests still get real answers. The
// dispatcher is parked inside the first batch (see parkDispatcher) so the
// overload state is pinned rather than raced.
func TestPredictShedsWith429(t *testing.T) {
	m, test := toyModel(t, 1)
	s, err := NewServer(m, Config{
		Batch:      BatchConfig{MaxBatch: 1, MaxDelay: time.Millisecond, QueueBound: 2},
		RetryAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := parkDispatcher(s.Batcher(), release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	input := test.Images[:m.InputDim()]
	const admitted = 3 // 1 in flight + QueueBound queued
	codes := make([]int, admitted)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postPredict(t, ts.URL, input, nil)
			codes[i] = resp.StatusCode
		}()
	}
	submit(0)
	<-entered // dispatcher is stuck inside request 0's batch
	submit(1)
	submit(2)
	waitQueueDepth(t, s.Batcher(), 2)
	// Queue provably full: every further request is answered 429 at once.
	const floods = 8
	for i := 0; i < floods; i++ {
		resp, body := postPredict(t, ts.URL, input, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("flood %d with a full queue: status %d (%s), want 429", i, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Errorf("flood %d Retry-After %q, want \"2\"", i, ra)
		}
	}
	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, c)
		}
	}
	if st := s.Batcher().Stats(); st.Shed != floods || st.Served != admitted {
		t.Errorf("stats: %+v, want shed=%d served=%d", st, floods, admitted)
	}
}

// 100 concurrent requests through the full HTTP stack all succeed and all
// match the model's own answers — the serve_quickstart scenario as a test.
func TestHundredConcurrentRequests(t *testing.T) {
	m, _ := toyModel(t, 30)
	// The queue must hold the full burst: all 100 requests are admitted, so
	// every one of them is answered with logits, never shed.
	s, err := NewServer(m, Config{Batch: BatchConfig{MaxBatch: 8, MaxDelay: time.Millisecond, QueueBound: 128}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	dim := m.InputDim()
	const n = 100
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = make([]float32, dim)
		for j := range inputs[i] {
			inputs[i][j] = float32((i*31+j*17)%97) / 97
		}
	}
	want := make([]int, n)
	for i := range inputs {
		logits, err := m.Predict(inputs[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		wi := 0
		for j, v := range logits {
			if v > logits[wi] {
				wi = j
			}
		}
		want[i] = wi
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postPredict(t, ts.URL, inputs[i], nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var pr predictResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				t.Error(err)
				return
			}
			if pr.Argmax != want[i] {
				t.Errorf("request %d: argmax %d, want %d", i, pr.Argmax, want[i])
			}
		}(i)
	}
	wg.Wait()
	if st := s.Batcher().Stats(); st.Served < n {
		t.Errorf("served %d of %d", st.Served, n)
	}
}

// decodeInput must be indistinguishable from encoding/json: the same
// float32 bits for every body both accept, an error exactly when it errors.
// The table holds bodies the single pass takes and bodies it must hand over.
func TestDecodeInputMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, 1e-40, 0.1, 1.0 / 3, 16777217, 1e21, 1e-7}
	for len(vals) < 400 {
		vals = append(vals, math.Float32frombits(rng.Uint32()&^0x7f800000|uint32(rng.Intn(254)+1)<<23),
			float32(rng.Intn(256))/255)
	}
	canonical, err := json.Marshal(predictRequest{Input: vals})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parseInput(canonical, nil); !ok {
		t.Error("the single pass refused a body json.Marshal wrote")
	}
	bodies := []string{
		string(canonical),
		`{"input":[]}`, ` { "input" : [ 1 , 2.5e0 ,-3E+2,4e-1 ] } ` + "\r\n\t",
		`{"input":[-0,0.0,1e-50,1e38,3.4028235e38,3.4028236e38,1.00000001]}`,
		`{"input":[1e39]}`, `{"input":[1e999]}`, `{"input":[01]}`, `{"input":[1.]}`, `{"input":[.5]}`,
		`{"input":[+1]}`, `{"input":[-]}`, `{"input":[1e]}`, `{"input":[1e+]}`, `{"input":[0x10]}`,
		`{"input":[1_0]}`, `{"input":[NaN]}`, `{"input":[Infinity]}`, `{"input":["1"]}`, `{"input":[[1]]}`,
		`{"input":[1,]}`, `{"input":[,1]}`, `{"input":[1 2]}`, `{"input":[1`, `{"input":[1]`, `{"input":`,
		`{"input":null}`, `{"input":1}`, `{"input":{}}`, `{}`, `[]`, `null`, ``, `{`, `x`,
		`{"Input":[1,2]}`, `{"INPUT":[1,2]}`, `{"input":[1,2]}`, `{"other":[9],"input":[1,2]}`,
		`{"input":[1,2],"other":3}`, `{"input":[1],"input":[2,3]}`, `{"input":[1,2]} trailing`,
		`{"input":[1,2]}{"input":[3]}`, `{"input":[1,2]}]`,
		`{"input":[12345678901234567890123456789012345678.5,0.000000000000000000000000000000000000001]}`,
	}
	for _, body := range bodies {
		var want predictRequest
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		got, gotErr := decodeInput([]byte(body), make([]float32, 3, 8))
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("%.60q: error %v, encoding/json %v", body, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if len(got) != len(want.Input) {
			t.Errorf("%.60q: %d values, encoding/json %d", body, len(got), len(want.Input))
			continue
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want.Input[i]) {
				t.Errorf("%.60q: value %d is %v, encoding/json %v", body, i, got[i], want.Input[i])
			}
		}
	}
}
