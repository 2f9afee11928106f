package scope

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestClientID: the header when present and at most 128 bytes,
// otherwise the remote host without its port.
func TestClientID(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	r.RemoteAddr = "10.1.2.3:4567"
	if got := ClientID(r); got != "10.1.2.3" {
		t.Errorf("no header: %q, want the host without its port", got)
	}
	r.Header.Set(clientHeader, "tenant-a")
	if got := ClientID(r); got != "tenant-a" {
		t.Errorf("header: %q, want tenant-a", got)
	}
	r.Header.Set(clientHeader, strings.Repeat("x", 129))
	if got := ClientID(r); got != "10.1.2.3" {
		t.Errorf("oversized header: %q, want the remote host", got)
	}
}
