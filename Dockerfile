# Compile-service cluster image.
#
# Runs `python -m repro.service serve` as a multi-worker cluster over a
# consistent-hash-sharded artifact store (mount /data to persist it):
#
#   docker build -t repro-service .
#   docker run -p 9090:9090 -v repro-store:/data repro-service
#
# Override workers/shards/queue by replacing the command:
#
#   docker run -p 9090:9090 repro-service \
#       python -m repro.service serve --host 0.0.0.0 --port 9090 \
#           --workers 4 --shards 4 --cache-dir /data/store --queue-limit 128
#
# The CI SLO gate (scripts/check_service_slo.py) runs inside this image
# so the gated binary is the shipped binary.

FROM python:3.12-slim

WORKDIR /app

# Install exactly what the wheel needs first, so source edits don't
# bust the dependency layer.  The package's one runtime dependency is
# NumPy (the fleet engine); the test extra pulls the SLO gate's runtime
# (pytest et al. for CI use).
COPY pyproject.toml setup.py README.md ./
COPY src ./src
COPY scripts ./scripts
RUN pip install --no-cache-dir -e ".[test]"

RUN mkdir -p /data
VOLUME ["/data"]

EXPOSE 9090

# Serving defaults: 2 workers x 2 store shards behind a bounded queue.
CMD ["python", "-m", "repro.service", "serve", \
     "--host", "0.0.0.0", "--port", "9090", \
     "--workers", "2", "--shards", "2", \
     "--cache-dir", "/data/store", "--queue-limit", "64"]
