package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// loadgenConns is the number of keep-alive connections (and sender
// goroutines) the open loop uses: one per CPU of the two-CPU host the
// benchmark is sized for.
const loadgenConns = 2

// inferResult is one /infer request: when it was due, when it went out,
// when the reply was in, and whether the reply was well-formed.
type inferResult struct {
	due, sent, done int64 // UnixNano
	ok              bool
}

// runLoadgen sends bodies[i] due at start + i/rate, request i on connection
// i mod loadgenConns. It is an open loop: a slow reply delays the next
// request on its connection, and that wait counts, because latency is
// taken from the due time.
func runLoadgen(base string, bodies [][]byte, start time.Time, rate float64, classes int) []inferResult {
	out := make([]inferResult, len(bodies))
	var wg sync.WaitGroup
	for k := 0; k < loadgenConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr, Timeout: 5 * time.Second}
			for i := k; i < len(bodies); i += loadgenConns {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				r := &out[i]
				r.due, r.sent = due.UnixNano(), time.Now().UnixNano()
				r.ok = inferOnce(cl, base, bodies[i], classes)
				r.done = time.Now().UnixNano()
			}
		}(k)
	}
	wg.Wait()
	return out
}

// inferOnce sends one request and validates the reply: 200, a classes-long
// finite score vector, and a class that is its argmax. shmserve replies with
// logits, not probabilities, so there is no sum to check.
func inferOnce(cl *http.Client, base string, body []byte, classes int) bool {
	resp, err := cl.Post(base+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var reply struct {
		Class  int       `json:"class"`
		Scores []float64 `json:"scores"`
	}
	if json.Unmarshal(raw, &reply) != nil || len(reply.Scores) != classes {
		return false
	}
	best := 0
	for i, s := range reply.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return false
		}
		if s > reply.Scores[best] {
			best = i
		}
	}
	return reply.Class == best
}
