package main

import (
	"bytes"
	"encoding/json"
	"time"

	"rahtm"
)

// wireSamples collects the times, in ms, of the library calls a daemon
// makes on a request outside the solve itself.
type wireSamples struct{ decode, materialize, key, encode []float64 }

// add times those calls once on body: JSON decode into a Request,
// Request.Materialize, Request.Key, and the indented JSON encode of res,
// the body's Result. The decode is fresh, so nothing is memoized between
// calls.
func (w *wireSamples) add(body []byte, res *rahtm.Result) error {
	var req rahtm.Request
	t0 := time.Now()
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	t1 := time.Now()
	if _, _, err := req.Materialize(); err != nil {
		return err
	}
	t2 := time.Now()
	if _, err := req.Key(); err != nil {
		return err
	}
	t3 := time.Now()
	var buf bytes.Buffer
	e := json.NewEncoder(&buf)
	e.SetIndent("", "  ")
	if err := e.Encode(res); err != nil {
		return err
	}
	t4 := time.Now()
	w.decode = append(w.decode, ms(t1.Sub(t0)))
	w.materialize = append(w.materialize, ms(t2.Sub(t1)))
	w.key = append(w.key, ms(t3.Sub(t2)))
	w.encode = append(w.encode, ms(t4.Sub(t3)))
	return nil
}

// medians returns the median decode, materialize, key and encode times.
func (w *wireSamples) medians() [4]float64 {
	return [4]float64{median(w.decode), median(w.materialize), median(w.key), median(w.encode)}
}

// wireNames are the per-layer metrics of medians, in order.
var wireNames = [4]string{"rahtm.decode_ms", "rahtm.materialize_ms", "rahtm.key_ms", "rahtm.encode_ms"}
