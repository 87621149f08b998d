package dfdbm

import (
	"dfdbm/internal/server"
)

// Network query service: a dfdbm database served over TCP on the
// concurrent data-flow engine, with a multi-query admission scheduler
// that generalizes the paper's Section 4 master-controller concurrency
// rules — queries with non-conflicting read/write sets run
// concurrently, conflicting ones queue, and overload is shed rather
// than buffered.
type (
	// QueryServer is a running network query service (Serve).
	QueryServer = server.Server
	// ServeConfig parameterizes Serve: listen address, session and
	// admission limits, durability, and observability.
	ServeConfig = server.Config
	// Client is one client session against a QueryServer (Dial).
	Client = server.Client
	// ClientConfig parameterizes Dial.
	ClientConfig = server.ClientConfig
	// QueryResult is one answered remote query: the reassembled
	// relation plus the server's stats frame.
	QueryResult = server.QueryResult
	// RemoteError is a server-reported failure, carrying the wire
	// error code ("overloaded", "draining", "parse", "exec",
	// "protocol" or "version").
	RemoteError = server.RemoteError
)

// ServeEngineCore is the one engine ServeConfig.Engine accepts.
const ServeEngineCore = server.EngineCore

// Serve starts a network query service over the database. The server
// owns a listener on cfg.Addr and serves sessions until Shutdown
// (graceful drain) or Close.
func Serve(db *DB, cfg ServeConfig) (*QueryServer, error) {
	return server.Start(db.cat, cfg)
}

// Dial opens a client session against a Serve-d database.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	return server.Dial(addr, cfg)
}
