package scope

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// FlightPayload is the JSON shape of every /debug/scope endpoint,
// pinned by testdata/scope_flight.schema.json.
type FlightPayload struct {
	Process    string         `json:"process"`
	View       string         `json:"view"`
	ErrorsSeen uint64         `json:"errors_seen,omitempty"`
	Records    []FlightRecord `json:"records"`
}

// DebugHandler returns the debug plane of one process ("maod",
// "maorouter"), served on its opt-in debug listener (-debug-addr): the
// net/http/pprof profiling endpoints under /debug/pprof/ and rec's
// views under /debug/scope/{recent,slowest,errors}. It is deliberately
// a separate handler instead of extra routes on the service port:
// profiles and flight records expose internals (memory contents,
// goroutine stacks, other tenants' request metadata, timing side
// channels) that must never ride there. A nil rec serves empty views.
func DebugHandler(process string, rec *Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	view := func(name string, recs []FlightRecord, errsSeen uint64, w http.ResponseWriter) {
		if recs == nil {
			recs = []FlightRecord{} // never null: an empty recorder answers []
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		enc.Encode(FlightPayload{Process: process, View: name, ErrorsSeen: errsSeen, Records: recs})
	}
	mux.HandleFunc("GET /debug/scope/recent", func(w http.ResponseWriter, _ *http.Request) {
		view("recent", rec.Recent(), 0, w)
	})
	mux.HandleFunc("GET /debug/scope/slowest", func(w http.ResponseWriter, _ *http.Request) {
		view("slowest", rec.Slowest(), 0, w)
	})
	mux.HandleFunc("GET /debug/scope/errors", func(w http.ResponseWriter, _ *http.Request) {
		recs, seen := rec.Errors()
		view("errors", recs, seen, w)
	})
	return mux
}

// clientHeader names the tenant a request belongs to, for maod's
// per-client quotas and for the Client field of both processes' flight
// records.
const clientHeader = "X-Mao-Client"

// ClientID resolves a request's client identity: the X-Mao-Client
// header, otherwise the remote address's host, so unlabeled clients
// are still told apart by origin (and a client keeps one identity
// across its connections and across the router hop). Inbound IDs are
// length-capped like request IDs: the value is reflected into metrics
// labels, and unbounded attacker-controlled label values have no
// business there.
func ClientID(r *http.Request) string {
	if id := r.Header.Get(clientHeader); id != "" && len(id) <= 128 {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
