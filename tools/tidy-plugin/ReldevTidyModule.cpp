// Project-specific clang-tidy checks for the reldev tree, packaged as an
// out-of-tree plugin (loaded with `clang-tidy -load=libreldev_tidy_module.so`;
// tools/lint.sh does this automatically when the module is built).
//
//   reldev-no-raw-std-mutex      declarations of std::mutex / std::lock_guard
//                                / std::unique_lock / std::condition_variable
//                                (and friends) — the library's annotated
//                                primitives (reldev::Mutex, MutexLock,
//                                CondVar; thread_annotations.hpp) are
//                                mandatory so both the static thread-safety
//                                analysis and the runtime lockdep checker
//                                see every lock.
//   reldev-no-blocking-under-lock
//                                calls to blocking syscalls (pread, pwrite,
//                                fsync, send, recv, epoll_wait, ...) or
//                                sleeps lexically inside a scope where a
//                                reldev::MutexLock is live — the lexical
//                                (compile-time) half of lockdep's
//                                check_blocking(). A lockdep::AllowBlocking
//                                declared before the call suppresses it.
//   reldev-result-discard        a reldev::Status / reldev::Result<T> return
//                                value discarded, either as a bare statement
//                                or silenced with a (void) / static_cast<void>
//                                cast; the sanctioned spelling is
//                                .ignore_error().
//
// The implementation deliberately uses only the stable ClangTidyCheck /
// ASTMatchers surface so it builds against the distro clang-tidy headers
// (LLVM 14 through 18, /usr/lib/llvm-*/include/clang-tidy).
#include "clang-tidy/ClangTidyCheck.h"
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"
#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

namespace clang::tidy::reldev {

using namespace clang::ast_matchers;  // NOLINT

// ---------------------------------------------------------------------------
// reldev-no-raw-std-mutex
// ---------------------------------------------------------------------------

class NoRawStdMutexCheck : public ClangTidyCheck {
 public:
  NoRawStdMutexCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(MatchFinder *Finder) override {
    const auto BannedStdSync = cxxRecordDecl(hasAnyName(
        "::std::mutex", "::std::timed_mutex", "::std::recursive_mutex",
        "::std::recursive_timed_mutex", "::std::shared_mutex",
        "::std::shared_timed_mutex", "::std::lock_guard",
        "::std::unique_lock", "::std::scoped_lock", "::std::shared_lock",
        "::std::condition_variable", "::std::condition_variable_any"));
    const auto Banned = qualType(hasUnqualifiedDesugaredType(
        recordType(hasDeclaration(BannedStdSync))));
    Finder->addMatcher(
        declaratorDecl(hasType(qualType(
                           anyOf(Banned, references(Banned), pointsTo(Banned)))))
            .bind("decl"),
        this);
  }

  void check(const MatchFinder::MatchResult &Result) override {
    const auto *Decl = Result.Nodes.getNodeAs<DeclaratorDecl>("decl");
    if (Decl == nullptr || Decl->getLocation().isInvalid()) return;
    diag(Decl->getLocation(),
         "raw std synchronization type %0; use reldev::Mutex / "
         "reldev::MutexLock / reldev::CondVar (thread_annotations.hpp) so "
         "the thread-safety analysis and lockdep see this lock")
        << Decl->getType().getAsString();
  }
};

// ---------------------------------------------------------------------------
// reldev-no-blocking-under-lock
// ---------------------------------------------------------------------------

class NoBlockingUnderLockCheck : public ClangTidyCheck {
 public:
  NoBlockingUnderLockCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(MatchFinder *Finder) override {
    // Blocking libc / POSIX entry points and the std sleep helpers. The
    // runtime list lives in fd_io.hpp / socket.cpp (check_blocking call
    // sites); keep the two in sync.
    const auto BlockingFn = functionDecl(hasAnyName(
        "::pread", "::pwrite", "::preadv", "::pwritev", "::read", "::write",
        "::fsync", "::fdatasync", "::send", "::recv", "::sendmsg",
        "::recvmsg", "::readv", "::writev", "::accept", "::accept4",
        "::connect", "::poll", "::ppoll", "::select", "::epoll_wait",
        "::epoll_pwait", "::sleep", "::usleep", "::nanosleep",
        "::std::this_thread::sleep_for", "::std::this_thread::sleep_until"));
    Finder->addMatcher(
        callExpr(callee(BlockingFn)).bind("call"), this);
  }

  void check(const MatchFinder::MatchResult &Result) override {
    const auto *Call = Result.Nodes.getNodeAs<CallExpr>("call");
    if (Call == nullptr || Call->getBeginLoc().isInvalid()) return;
    ASTContext &Ctx = *Result.Context;
    // Walk outward through the enclosing compound statements. In each one,
    // only the statements *before* the one containing this call matter: a
    // MutexLock declared there is still held at the call site.
    const Stmt *Child = Call;
    DynTypedNode Node = DynTypedNode::create(*Call);
    for (;;) {
      const auto Parents = Ctx.getParents(Node);
      if (Parents.empty()) return;
      const DynTypedNode Parent = Parents[0];
      if (const auto *Block = Parent.get<CompoundStmt>()) {
        for (const Stmt *Sibling : Block->body()) {
          if (Sibling == Child) break;
          const auto *Decls = dyn_cast<DeclStmt>(Sibling);
          if (Decls == nullptr) continue;
          for (const Decl *D : Decls->decls()) {
            const auto *Var = dyn_cast<VarDecl>(D);
            if (Var == nullptr) continue;
            if (isRecordNamed(Var->getType(),
                              "reldev::lockdep::AllowBlocking")) {
              return;  // explicitly sanctioned blocking region
            }
            if (isRecordNamed(Var->getType(), "reldev::MutexLock")) {
              diag(Call->getBeginLoc(),
                   "blocking call while reldev::MutexLock %0 (declared at "
                   "line %1) is held; move the I/O outside the critical "
                   "section (DESIGN.md §15)")
                  << Var->getName()
                  << static_cast<unsigned>(
                         Ctx.getSourceManager().getSpellingLineNumber(
                             Var->getLocation()));
              return;
            }
          }
        }
      }
      // A lock held by a *caller* is the runtime checker's job; stop at
      // the enclosing function or lambda.
      if (Parent.get<FunctionDecl>() != nullptr ||
          Parent.get<LambdaExpr>() != nullptr) {
        return;
      }
      if (const Stmt *ParentStmt = Parent.get<Stmt>()) Child = ParentStmt;
      Node = Parent;
    }
  }

 private:
  static bool isRecordNamed(QualType Type, StringRef Qualified) {
    const auto *Record = Type.getCanonicalType()->getAsCXXRecordDecl();
    if (Record == nullptr) return false;
    return Record->getQualifiedNameAsString() == Qualified;
  }
};

// ---------------------------------------------------------------------------
// reldev-result-discard
// ---------------------------------------------------------------------------

class ResultDiscardCheck : public ClangTidyCheck {
 public:
  ResultDiscardCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}

  void registerMatchers(MatchFinder *Finder) override {
    const auto ResultType = hasUnqualifiedDesugaredType(
        recordType(hasDeclaration(cxxRecordDecl(
            hasAnyName("::reldev::Status", "::reldev::Result")))));
    const auto ResultCall = callExpr(hasType(ResultType)).bind("call");
    // Bare statement: the full-expression (possibly wrapped in cleanups)
    // sits directly in a compound statement.
    Finder->addMatcher(
        compoundStmt(forEach(expr(anyOf(
            ResultCall, exprWithCleanups(has(ignoringImplicit(ResultCall))))))),
        this);
    // Silenced with a cast to void — `(void)call()` or
    // `static_cast<void>(call())`.
    Finder->addMatcher(
        explicitCastExpr(hasDestinationType(voidType()),
                         has(ignoringImplicit(ResultCall)))
            .bind("cast"),
        this);
  }

  void check(const MatchFinder::MatchResult &Result) override {
    const auto *Call = Result.Nodes.getNodeAs<CallExpr>("call");
    if (Call == nullptr || Call->getBeginLoc().isInvalid()) return;
    const bool Cast = Result.Nodes.getNodeAs<ExplicitCastExpr>("cast") != nullptr;
    diag(Call->getBeginLoc(),
         Cast ? "Status/Result silenced with a cast to void; handle the "
                "error or spell the discard .ignore_error()"
              : "Status/Result discarded; handle the error or spell the "
                "discard .ignore_error()");
  }
};

// ---------------------------------------------------------------------------
// Module registration
// ---------------------------------------------------------------------------

class ReldevModule : public ClangTidyModule {
 public:
  void addCheckFactories(ClangTidyCheckFactories &Factories) override {
    Factories.registerCheck<NoRawStdMutexCheck>("reldev-no-raw-std-mutex");
    Factories.registerCheck<NoBlockingUnderLockCheck>(
        "reldev-no-blocking-under-lock");
    Factories.registerCheck<ResultDiscardCheck>("reldev-result-discard");
  }
};

}  // namespace clang::tidy::reldev

namespace clang::tidy {

// NOLINTNEXTLINE(cert-err58-cpp) -- standard clang-tidy registry idiom.
static ClangTidyModuleRegistry::Add<reldev::ReldevModule> X(
    "reldev-module", "Project-specific checks for the reldev tree.");

// Anchor so -load keeps the module object alive.
volatile int ReldevModuleAnchorSource = 0;  // NOLINT

}  // namespace clang::tidy
